(* Roth's D-algorithm.  Values are five-valued and only ever refine
   (X -> 0/1/D/D'); a trail records assignments so backtracking is an
   undo.  Decisions: propagate the D-frontier (assign side inputs) or
   justify a J-frontier gate (assign one input).  Justification may
   assign error values (D/D') to lines inside the fault's fanout cone —
   the "error cube" cases (e.g. XOR(D, D') = 1) that pure binary
   enumeration would miss. *)

exception Conflict
exception Abort

type state = {
  c : Circuit.t;
  scoap : Scoap.t;
  mutable fault : Fault.t;
  stats : Podem.stats;
  values : Five.t array;
  in_cone : bool array;  (* transitive fanout of the fault site *)
  mutable cone : int array;  (* the set entries of [in_cone], for reset *)
  mutable limit : int;
  mutable deadline : Util.Budget.t;
  mutable trail : (int * Five.t) list;
  mutable queue : int list;  (* nodes to (re)examine *)
}

let stuck_ternary st = Ternary.of_bool st.fault.Fault.stuck_at

let pin_value st g p =
  let v = st.values.((Circuit.fanins st.c g).(p)) in
  match st.fault.Fault.site with
  | Fault.Branch { gate; pin } when gate = g && pin = p ->
      Five.of_pair (Five.good v, stuck_ternary st)
  | _ -> v

let eval_node st n =
  let raw =
    match Circuit.kind st.c n with
    | Gate.Input -> st.values.(n)
    | k ->
        let fanins = Circuit.fanins st.c n in
        Five.eval_array k (Array.init (Array.length fanins) (pin_value st n))
  in
  match st.fault.Fault.site with
  | Fault.Stem s when s = n -> Five.of_pair (Five.good raw, stuck_ternary st)
  | _ -> raw

let enqueue st n = st.queue <- n :: st.queue

let assign st n v =
  match st.values.(n) with
  | Five.X ->
      st.trail <- (n, Five.X) :: st.trail;
      st.values.(n) <- v;
      st.stats.Podem.implications <- st.stats.Podem.implications + 1;
      Array.iter (enqueue st) (Circuit.fanouts st.c n);
      enqueue st n
  | cur -> if not (Five.equal cur v) then raise Conflict

(* Backward implications for a gate whose output is assigned but whose
   forward evaluation is still X.  Only applies the forced cases; free
   choices go to the J-frontier. *)
let imply_backward st n =
  (* At the fault-site stem the faulty part of the output comes from
     the fault, not the inputs: implications target the good machine
     only.  Elsewhere the recorded value is authoritative. *)
  let v =
    match st.fault.Fault.site with
    | Fault.Stem s when s = n -> (
        match Five.good st.values.(n) with
        | Ternary.One -> Five.One
        | Ternary.Zero -> Five.Zero
        | Ternary.X -> Five.X)
    | _ -> st.values.(n)
  in
  let fanins = Circuit.fanins st.c n in
  let k = Circuit.kind st.c n in
  let x_pins = ref [] and assigned = ref [] in
  Array.iteri
    (fun p _ ->
      match pin_value st n p with
      | Five.X -> x_pins := p :: !x_pins
      | pv -> assigned := pv :: !assigned)
    fanins;
  let x_pins = List.rev !x_pins in
  let all_binary_assigned pred = List.for_all pred !assigned in
  let force p fv =
    (* Assigning through a faulted pin is meaningless; the driver
       carries the good value instead (handled at activation).  Error
       values cannot exist outside the fault cone. *)
    match st.fault.Fault.site with
    | Fault.Branch { gate; pin } when gate = n && pin = p -> ()
    | _ ->
        if Five.is_error fv && not st.in_cone.(fanins.(p)) then raise Conflict;
        assign st fanins.(p) fv
  in
  match k with
  | Gate.Buf | Gate.Dff -> force 0 v
  | Gate.Not -> force 0 (Five.inv v)
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
      let controlling =
        match Gate.controlling_value k with Some c0 -> c0 | None -> assert false
      in
      let core_v = if Gate.inverting k then Five.inv v else v in
      let non_ctrl = if controlling then Five.Zero else Five.One in
      let ctrl = if controlling then Five.One else Five.Zero in
      match core_v with
      | v' when Five.equal v' non_ctrl ->
          (* AND core output 1 / OR core output 0: every input forced
             to the non-controlling value. *)
          List.iter (fun p -> force p non_ctrl) x_pins
      | v' when Five.equal v' ctrl ->
          (* Forced only when a single X pin remains and the others
             cannot produce the controlling side. *)
          if
            List.length x_pins = 1
            && all_binary_assigned (fun pv -> Five.equal pv non_ctrl)
          then force (List.hd x_pins) ctrl
      | _ -> () (* D/D' outputs justify through forward refinement *))
  | Gate.Xor | Gate.Xnor ->
      if List.length x_pins = 1 && all_binary_assigned (fun pv -> not (Five.is_error pv))
      then begin
        (* Parity with binary knowns: the last X pin is forced. *)
        let parity =
          List.fold_left
            (fun acc pv -> if Five.equal pv Five.One then not acc else acc)
            (Gate.inverting k) !assigned
        in
        match v with
        | Five.Zero -> force (List.hd x_pins) (if parity then Five.One else Five.Zero)
        | Five.One -> force (List.hd x_pins) (if parity then Five.Zero else Five.One)
        | _ -> ()
      end
  | Gate.Input | Gate.Const0 | Gate.Const1 -> ()

let imply st =
  let rec drain () =
    match st.queue with
    | [] -> ()
    | n :: rest ->
        st.queue <- rest;
        (match Circuit.kind st.c n with
        | Gate.Input -> ()
        | _ -> (
            let computed = eval_node st n in
            match (computed, st.values.(n)) with
            | Five.X, Five.X -> ()
            | Five.X, _ -> imply_backward st n
            | cv, Five.X -> assign st n cv
            | cv, v -> if not (Five.equal cv v) then raise Conflict));
        drain ()
  in
  drain ()

let error_at_po st = Array.exists (fun o -> Five.is_error st.values.(o)) (Circuit.outputs st.c)

(* Gates assigned but not yet justified (forward evaluation still X). *)
let unjustified st =
  let best = ref None in
  Circuit.iter_nodes st.c (fun n ->
      match Circuit.kind st.c n with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | _ ->
          if (not (Five.equal st.values.(n) Five.X)) && Five.equal (eval_node st n) Five.X
          then
            let cost = Scoap.co st.scoap n in
            match !best with
            | Some (c0, _) when c0 <= cost -> ()
            | _ -> best := Some (cost, n));
  Option.map snd !best

(* X-path marks, as in PODEM. *)
let xpath_marks st =
  let n = Circuit.node_count st.c in
  let mark = Array.make n false in
  let topo = Circuit.topological_order st.c in
  for idx = n - 1 downto 0 do
    let g = topo.(idx) in
    if Five.equal st.values.(g) Five.X then
      if Circuit.is_output st.c g || Array.exists (fun s -> mark.(s)) (Circuit.fanouts st.c g)
      then mark.(g) <- true
  done;
  mark

let frontier_gates st =
  let mark = xpath_marks st in
  let acc = ref [] in
  Circuit.iter_nodes st.c (fun g ->
      if Five.equal st.values.(g) Five.X && mark.(g) then begin
        let fanins = Circuit.fanins st.c g in
        let rec has_err p =
          p < Array.length fanins && (Five.is_error (pin_value st g p) || has_err (p + 1))
        in
        if Array.length fanins > 0 && has_err 0 then acc := g :: !acc
      end);
  List.sort (fun a b -> compare (Scoap.co st.scoap a) (Scoap.co st.scoap b)) !acc

let undo_to st mark =
  while st.trail != mark do
    match st.trail with
    | (n, v) :: rest ->
        st.values.(n) <- v;
        st.trail <- rest
    | [] -> assert false
  done;
  st.queue <- []

(* Candidate values for a free line during justification: binary
   always; error values only inside the fault cone (where they can
   exist), enabling cubes like XOR(D, D') = 1 and AND(D, D') = 0. *)
let candidate_values st node =
  if st.in_cone.(node) then [ Five.Zero; Five.One; Five.D; Five.Dbar ]
  else [ Five.Zero; Five.One ]

let rec search st =
  match (try imply st; true with Conflict -> false) with
  | false -> false
  | true ->
      if error_at_po st then
        match unjustified st with
        | None -> true
        | Some g -> justify st g
      else begin
        match frontier_gates st with
        | [] -> false
        | gates -> try_frontiers st gates
      end

and branch st alternatives =
  let mark = st.trail in
  let rec go = function
    | [] -> false
    | apply :: rest ->
        if Util.Budget.expired st.deadline then raise Podem.Budget_exhausted;
        st.stats.Podem.decisions <- st.stats.Podem.decisions + 1;
        let ok = (try apply (); true with Conflict -> false) && search st in
        if ok then true
        else begin
          undo_to st mark;
          st.stats.Podem.backtracks <- st.stats.Podem.backtracks + 1;
          if st.stats.Podem.backtracks > st.limit then raise Abort;
          go rest
        end
  in
  go alternatives

and try_frontiers st gates =
  (* Each frontier gate is an alternative propagation path; for each,
     drive the side inputs to non-controlling values (both parity
     polarities for XOR). *)
  let alts =
    List.concat_map
      (fun g ->
        let fanins = Circuit.fanins st.c g in
        let x_drivers = ref [] in
        Array.iteri
          (fun p _ -> if Five.equal (pin_value st g p) Five.X then x_drivers := fanins.(p) :: !x_drivers)
          fanins;
        let x_drivers = List.sort_uniq compare !x_drivers in
        match Circuit.kind st.c g with
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
            let nc =
              match Gate.controlling_value (Circuit.kind st.c g) with
              | Some cv -> if cv then Five.Zero else Five.One
              | None -> assert false
            in
            [ (fun () -> List.iter (fun d -> assign st d nc) x_drivers) ]
        | Gate.Xor | Gate.Xnor ->
            [
              (fun () -> List.iter (fun d -> assign st d Five.Zero) x_drivers);
              (fun () -> List.iter (fun d -> assign st d Five.One) x_drivers);
            ]
        | _ -> [])
      gates
  in
  branch st alts

and justify st g =
  let v =
    (* The fault-site stem's faulty part is forced by the transform;
       justification targets the good machine only. *)
    match st.fault.Fault.site with
    | Fault.Stem s when s = g -> (
        match Five.good st.values.(g) with
        | Ternary.One -> Five.One
        | Ternary.Zero -> Five.Zero
        | Ternary.X -> Five.X)
    | _ -> st.values.(g)
  in
  let fanins = Circuit.fanins st.c g in
  let x_drivers = ref [] in
  Array.iteri
    (fun p _ ->
      (match st.fault.Fault.site with
      | Fault.Branch { gate; pin } when gate = g && pin = p -> ()
      | _ ->
          if Five.equal (pin_value st g p) Five.X && not (List.mem fanins.(p) !x_drivers)
          then x_drivers := fanins.(p) :: !x_drivers))
    fanins;
  let x_drivers = List.rev !x_drivers in
  match x_drivers with
  | [] -> false (* assigned output, no freedom, still unjustified *)
  | _ ->
      let alts =
        match Circuit.kind st.c g with
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
            let controlling =
              match Gate.controlling_value (Circuit.kind st.c g) with
              | Some c0 -> c0
              | None -> assert false
            in
            let core_v = if Gate.inverting (Circuit.kind st.c g) then Five.inv v else v in
            let ctrl = if controlling then Five.One else Five.Zero in
            if Five.equal core_v ctrl then
              (* Controlling side: one input at the controlling value,
                 or an error pair inside the cone. *)
              List.concat_map
                (fun d ->
                  List.filter_map
                    (fun cv ->
                      match cv with
                      | v' when Five.equal v' ctrl -> Some (fun () -> assign st d v')
                      | Five.D | Five.Dbar when st.in_cone.(d) ->
                          Some (fun () -> assign st d cv)
                      | _ -> None)
                    (candidate_values st d))
                x_drivers
            else
              (* Non-controlling side is forced — implication should
                 have consumed it; offering it as a single alternative
                 keeps the search sound if reached. *)
              [
                (fun () ->
                  List.iter
                    (fun d -> assign st d (if controlling then Five.Zero else Five.One))
                    x_drivers);
              ]
        | Gate.Xor | Gate.Xnor | Gate.Buf | Gate.Not | Gate.Dff ->
            (* Enumerate values for the first free driver; implication
               narrows the rest and recursion revisits the gate. *)
            let d = List.hd x_drivers in
            List.map (fun cv () -> assign st d cv) (candidate_values st d)
        | Gate.Input | Gate.Const0 | Gate.Const1 -> []
      in
      branch st alts

let has_wide_parity c =
  let wide = ref false in
  Circuit.iter_nodes c (fun n ->
      match Circuit.kind c n with
      | Gate.Xor | Gate.Xnor -> if Array.length (Circuit.fanins c n) > 2 then wide := true
      | _ -> ());
  !wide

let context ?stats c scoap =
  if Circuit.has_state c then invalid_arg "Dalg.context: circuit must be combinational";
  let stats = match stats with Some s -> s | None -> Podem.fresh_stats () in
  let n = Circuit.node_count c in
  {
    c;
    scoap;
    fault = Fault.stem 0 false;
    stats;
    values = Array.make n Five.X;
    in_cone = Array.make n false;
    cone = [||];
    limit = 256;
    deadline = Util.Budget.unlimited;
    trail = [];
    queue = [];
  }

let generate_in ?(backtrack_limit = 256) ?(deadline = Util.Budget.unlimited) st fault =
  (* Reset from the previous search: the trail records every value ever
     assigned, so unwinding it restores the all-X slab, and the cone
     list undoes exactly the [in_cone] marks that were set. *)
  undo_to st [];
  Array.iter (fun m -> st.in_cone.(m) <- false) st.cone;
  st.fault <- fault;
  (* The limit bounds THIS search: stats accumulate across a context's
     searches, so the comparison baseline is the count at entry. *)
  st.limit <- st.stats.Podem.backtracks + backtrack_limit;
  st.deadline <- deadline;
  let site = Fault.site_node fault in
  let cone = Array.append [| site |] (Circuit.transitive_fanout st.c site) in
  Array.iter (fun m -> st.in_cone.(m) <- true) cone;
  st.cone <- cone;
  let c = st.c in
  (* Constants; the fault-site stem is left to the transform so a
     detectable opposite-polarity fault on a constant reads D/D'. *)
  let stem_site = match fault.Fault.site with Fault.Stem s -> s | Fault.Branch _ -> -1 in
  Circuit.iter_nodes c (fun i ->
      match Circuit.kind c i with
      | (Gate.Const0 | Gate.Const1) when i = stem_site -> enqueue st i
      | Gate.Const0 -> assign st i Five.Zero
      | Gate.Const1 -> assign st i Five.One
      | _ -> ());
  (* Activate the fault. *)
  let outcome =
    try
      (match fault.Fault.site with
      | Fault.Stem s ->
          assign st s (if fault.Fault.stuck_at then Five.Dbar else Five.D)
      | Fault.Branch { gate; pin } ->
          (* The driver must carry the opposite of the stuck value; the
             faulted pin then reads D/D' via the pin transform. *)
          let d = (Circuit.fanins c gate).(pin) in
          assign st d (if fault.Fault.stuck_at then Five.Zero else Five.One);
          enqueue st gate);
      if search st then begin
        let cube = Array.map (fun pi -> Five.good st.values.(pi)) (Circuit.inputs c) in
        Podem.Test cube
      end
      else if has_wide_parity c then Podem.Aborted
      else Podem.Untestable
    with
    | Abort -> Podem.Aborted
    | Podem.Budget_exhausted -> Podem.Out_of_budget
    | Conflict -> if has_wide_parity c then Podem.Aborted else Podem.Untestable
  in
  outcome

let generate ?backtrack_limit ?deadline ?stats c scoap fault =
  generate_in ?backtrack_limit ?deadline (context ?stats c scoap) fault
