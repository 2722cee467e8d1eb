type outcome = Test of Ternary.t array | Untestable | Aborted | Out_of_budget

exception Budget_exhausted

type stats = {
  mutable backtracks : int;
  mutable decisions : int;
  mutable implications : int;
}

let fresh_stats () = { backtracks = 0; decisions = 0; implications = 0 }

type decision = { pi : int; mutable value : bool; mutable flipped : bool }

type state = {
  c : Circuit.t;
  scoap : Scoap.t;
  mutable fault : Fault.t;
  mutable deadline : Util.Budget.t;
  stats : stats;
  values : Five.t array;
  buckets : int list array;
  scheduled : bool array;
  xmark : bool array;  (* scratch for the X-path sweep *)
  mutable sched_nodes : int list;
  mutable stack : decision list;
  mutable written : int list;  (* nodes whose value may differ from X *)
  mutable cone : int array;
      (* fault site + its transitive fanout, in topological order: the
         only nodes that can carry D/D', hence the only nodes the
         frontier and X-path sweeps must visit *)
}

type context = state

let stuck_ternary st = Ternary.of_bool st.fault.stuck_at

(* Value of pin [p] of gate [g] as seen by the five-valued machines,
   applying the branch-fault transform when [g.p] is the fault site. *)
let pin_value st g p =
  let v = st.values.((Circuit.fanins st.c g).(p)) in
  match st.fault.site with
  | Fault.Branch { gate; pin } when gate = g && pin = p ->
      Five.of_pair (Five.good v, stuck_ternary st)
  | _ -> v

(* Recompute a node's five-valued value from its fanins, applying the
   stem-fault transform when the node is the fault site. *)
let eval_node st n =
  let raw =
    match Circuit.kind st.c n with
    | Gate.Input -> st.values.(n)
    | k ->
        let fanins = Circuit.fanins st.c n in
        Five.eval_array k (Array.init (Array.length fanins) (pin_value st n))
  in
  match st.fault.site with
  | Fault.Stem s when s = n -> Five.of_pair (Five.good raw, stuck_ternary st)
  | _ -> raw

let schedule st n =
  if not st.scheduled.(n) then begin
    st.scheduled.(n) <- true;
    st.sched_nodes <- n :: st.sched_nodes;
    let l = Circuit.level st.c n in
    st.buckets.(l) <- n :: st.buckets.(l)
  end

(* Event-driven forward implication from already-scheduled nodes. *)
let propagate st =
  if st.sched_nodes <> [] then begin
    for l = 0 to Array.length st.buckets - 1 do
      let pending = st.buckets.(l) in
      if pending <> [] then begin
        st.buckets.(l) <- [];
        List.iter
          (fun n ->
            let v = eval_node st n in
            if not (Five.equal v st.values.(n)) then begin
              st.values.(n) <- v;
              st.written <- n :: st.written;
              st.stats.implications <- st.stats.implications + 1;
              Array.iter (fun s -> schedule st s) (Circuit.fanouts st.c n)
            end)
          pending
      end
    done;
    List.iter (fun n -> st.scheduled.(n) <- false) st.sched_nodes;
    st.sched_nodes <- []
  end

let assign st pi v =
  st.written <- pi :: st.written;
  st.values.(pi) <-
    (match v with
    | None -> Five.X
    | Some b -> (
        let raw = if b then Five.One else Five.Zero in
        match st.fault.site with
        | Fault.Stem s when s = pi -> Five.of_pair (Five.good raw, stuck_ternary st)
        | _ -> raw));
  Array.iter (fun s -> schedule st s) (Circuit.fanouts st.c pi);
  (* The PI itself may be a primary output or the fault site feeding
     nothing; nothing further to recompute for it. *)
  propagate st

let error_at_po st = Array.exists (fun o -> Five.is_error st.values.(o)) (Circuit.outputs st.c)

(* Good-machine value on the fault's line (the stem, or the branch's
   driver). *)
let site_line_good st =
  match st.fault.site with
  | Fault.Stem s -> Five.good st.values.(s)
  | Fault.Branch { gate; pin } -> Five.good st.values.((Circuit.fanins st.c gate).(pin))

let site_line_node st =
  match st.fault.site with
  | Fault.Stem s -> s
  | Fault.Branch { gate; pin } -> (Circuit.fanins st.c gate).(pin)

(* Is the fault effect present on the faulted line/pin itself? *)
let fault_excited st =
  match st.fault.site with
  | Fault.Stem s -> Five.is_error st.values.(s)
  | Fault.Branch { gate; pin } -> Five.is_error (pin_value st gate pin)

(* Nodes from which a path of X-valued nodes reaches a primary output.
   The error can only travel inside the fault cone, so the sweep visits
   the cone (in reverse topological order) and nothing else, using the
   reusable [st.xmark] scratch array. *)
let xpath_marks st =
  let mark = st.xmark in
  let cone = st.cone in
  for idx = Array.length cone - 1 downto 0 do
    let g = cone.(idx) in
    mark.(g) <-
      Five.equal st.values.(g) Five.X
      && (Circuit.is_output st.c g
         || Array.exists (fun s -> mark.(s)) (Circuit.fanouts st.c g))
  done;
  mark

(* D-frontier: gates with X output and an error on some input pin,
   restricted to gates whose output has an X-path to a PO.  Returns the
   gate with the cheapest stem observability. *)
let best_frontier_gate st =
  let mark = xpath_marks st in
  let best = ref None in
  Array.iter (fun g ->
      if
        Five.equal st.values.(g) Five.X
        && mark.(g)
        && Array.length (Circuit.fanins st.c g) > 0
      then begin
        let has_error =
          let fanins = Circuit.fanins st.c g in
          let rec go p =
            p < Array.length fanins && (Five.is_error (pin_value st g p) || go (p + 1))
          in
          go 0
        in
        if has_error then
          let cost = Scoap.co st.scoap g in
          match !best with
          | Some (c0, _) when c0 <= cost -> ()
          | _ -> best := Some (cost, g)
      end)
    st.cone;
  Option.map snd !best

type objective = Obj of int * bool | Conflict | Done

let objective st =
  if error_at_po st then Done
  else if not (fault_excited st) then begin
    (* Activate: drive the faulted line's good value to the opposite of
       the stuck value. *)
    match site_line_good st with
    | Ternary.X -> Obj (site_line_node st, not st.fault.stuck_at)
    | g -> if Ternary.equal g (Ternary.of_bool st.fault.stuck_at) then Conflict else Conflict
    (* good = ~stuck but not excited can only happen for a branch fault
       whose pin transform yielded X — unreachable because good is
       binary there; treat defensively as Conflict. *)
  end
  else
    match best_frontier_gate st with
    | None -> Conflict
    | Some g ->
        let fanins = Circuit.fanins st.c g in
        let k = Circuit.kind st.c g in
        (* Choose an X input to set to the non-controlling value. *)
        let candidates = ref [] in
        for p = Array.length fanins - 1 downto 0 do
          if Five.equal (pin_value st g p) Five.X then candidates := fanins.(p) :: !candidates
        done;
        (match !candidates with
        | [] -> Conflict
        | cands ->
            let value, pick_cost =
              match Gate.controlling_value k with
              | Some cv -> (not cv, fun n -> Scoap.cc st.scoap n (not cv))
              | None -> (false, fun n -> min (Scoap.cc0 st.scoap n) (Scoap.cc1 st.scoap n))
            in
            let best =
              List.fold_left
                (fun acc n ->
                  match acc with
                  | None -> Some n
                  | Some m -> if pick_cost n < pick_cost m then Some n else acc)
                None cands
            in
            (match best with Some n -> Obj (n, value) | None -> Conflict))

(* Map an objective to an unassigned PI and a value, guided by SCOAP. *)
let rec backtrace st n v =
  match Circuit.kind st.c n with
  | Gate.Input -> if Ternary.equal (Five.good st.values.(n)) Ternary.X then Some (n, v) else None
  | Gate.Const0 | Gate.Const1 -> None
  | Gate.Buf | Gate.Dff -> backtrace st (Circuit.fanins st.c n).(0) v
  | Gate.Not -> backtrace st (Circuit.fanins st.c n).(0) (not v)
  | (Gate.And | Gate.Nand | Gate.Or | Gate.Nor) as k ->
      let fanins = Circuit.fanins st.c n in
      let core_v = if Gate.inverting k then not v else v in
      (* AND core: output 1 needs all inputs 1 (pick hardest); output 0
         needs one controlling input (pick easiest).  OR core dual; in
         both families the required input value equals core_v. *)
      let xs = ref [] in
      Array.iter
        (fun f -> if Ternary.equal (Five.good st.values.(f)) Ternary.X then xs := f :: !xs)
        fanins;
      let all_needed =
        match Gate.controlling_value k with
        | Some cv -> core_v <> cv
        | None -> assert false
      in
      let cost f = Scoap.cc st.scoap f core_v in
      let pick =
        List.fold_left
          (fun acc f ->
            match acc with
            | None -> Some f
            | Some m ->
                let better = if all_needed then cost f > cost m else cost f < cost m in
                if better then Some f else acc)
          None !xs
      in
      (match pick with None -> None | Some f -> backtrace st f core_v)
  | (Gate.Xor | Gate.Xnor) as k ->
      let fanins = Circuit.fanins st.c n in
      let xs = ref [] and known_parity = ref false in
      Array.iter
        (fun f ->
          match Five.good st.values.(f) with
          | Ternary.X -> xs := f :: !xs
          | Ternary.One -> known_parity := not !known_parity
          | Ternary.Zero -> ())
        fanins;
      let pick =
        List.fold_left
          (fun acc f ->
            let cost g = min (Scoap.cc0 st.scoap g) (Scoap.cc1 st.scoap g) in
            match acc with
            | None -> Some f
            | Some m -> if cost f < cost m then Some f else acc)
          None !xs
      in
      (match pick with
      | None -> None
      | Some f ->
          (* Required parity over inputs: v (xor gate inversion); other
             unassigned inputs are assumed 0 for the heuristic. *)
          let target = v <> Gate.inverting k in
          backtrace st f (target <> !known_parity))

let check_budget st =
  if Util.Budget.expired st.deadline then raise Budget_exhausted

let rec search st limit =
  check_budget st;
  match objective st with
  | Done -> `Success
  | Conflict -> backtrack st limit
  | Obj (n, v) -> (
      match backtrace st n v with
      | None -> backtrack st limit
      | Some (pi, pv) ->
          st.stats.decisions <- st.stats.decisions + 1;
          st.stack <- { pi; value = pv; flipped = false } :: st.stack;
          assign st pi (Some pv);
          search st limit)

and backtrack st limit =
  match st.stack with
  | [] -> `Untestable
  | d :: rest ->
      if d.flipped then begin
        assign st d.pi None;
        st.stack <- rest;
        backtrack st limit
      end
      else begin
        st.stats.backtracks <- st.stats.backtracks + 1;
        if st.stats.backtracks > limit then `Aborted
        else begin
          d.flipped <- true;
          d.value <- not d.value;
          assign st d.pi (Some d.value);
          search st limit
        end
      end

let context ?stats c scoap =
  if Circuit.has_state c then invalid_arg "Podem.context: circuit must be combinational";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  {
    c;
    scoap;
    fault = Fault.stem 0 false;
    deadline = Util.Budget.unlimited;
    stats;
    values = Array.make (Circuit.node_count c) Five.X;
    buckets = Array.make (Circuit.depth c + 1) [];
    scheduled = Array.make (Circuit.node_count c) false;
    xmark = Array.make (Circuit.node_count c) false;
    sched_nodes = [];
    stack = [];
    written = [];
    cone = [||];
  }

let reset st =
  List.iter (fun n -> st.values.(n) <- Five.X) st.written;
  st.written <- [];
  st.stack <- []

let generate_in ?(backtrack_limit = 256) ?(deadline = Util.Budget.unlimited) ?fixed st fault =
  reset st;
  st.fault <- fault;
  st.deadline <- deadline;
  (* Mark-free scratch is assumed: xpath_marks writes exactly the cone
     entries it reads, so switching cones needs no global reset (stale
     entries outside the new cone are never read). *)
  st.cone <- Array.append [| Fault.site_node fault |] (Circuit.transitive_fanout st.c (Fault.site_node fault));
  (* Constants are fixed from the start; fold them in. *)
  Circuit.iter_nodes st.c (fun n ->
      match Circuit.kind st.c n with
      | Gate.Const0 | Gate.Const1 -> schedule st n
      | _ -> ());
  propagate st;
  (* Pre-assignments (dynamic compaction's secondary-target mode):
     applied outside the decision stack, so backtracking never touches
     them. *)
  (match fixed with
  | None -> ()
  | Some cube ->
      let pis = Circuit.inputs st.c in
      if Array.length cube <> Array.length pis then
        invalid_arg "Podem.generate_in: fixed cube width mismatch";
      Array.iteri
        (fun i pi ->
          match cube.(i) with
          | Ternary.X -> ()
          | Ternary.Zero -> assign st pi (Some false)
          | Ternary.One -> assign st pi (Some true))
        pis);
  (* The limit bounds THIS search: stats accumulate across a context's
     searches, so the comparison baseline is the count at entry. *)
  match search st (st.stats.backtracks + backtrack_limit) with
  | `Success ->
      let cube = Array.map (fun pi -> Five.good st.values.(pi)) (Circuit.inputs st.c) in
      Test cube
  | `Untestable -> Untestable
  | `Aborted -> Aborted
  | exception Budget_exhausted -> Out_of_budget

let generate ?backtrack_limit ?deadline ?stats c scoap fault =
  generate_in ?backtrack_limit ?deadline (context ?stats c scoap) fault
