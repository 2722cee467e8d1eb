(* Tests for the paper's contribution: the accidental detection index
   and the six fault orders.  The dynamic heap-based ordering is checked
   against a literal O(n^2) transcription of the paper's procedure. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module Bitvec = Util.Bitvec
module Rng = Util.Rng

let small_circuit_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun pis ->
    int_range 3 25 >>= fun gates ->
    int_bound 10_000 >>= fun seed ->
    return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ())))

let arb_circuit = QCheck.make small_circuit_gen

let setup_of c n_patterns seed =
  let fl = Collapse.collapsed c in
  let rng = Rng.create seed in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:n_patterns in
  (fl, Adi_index.compute fl pats)

(* --- ADI definition ----------------------------------------------- *)

let adi_matches_definition =
  QCheck.Test.make ~name:"ADI(f) = min ndet(u) over D(f); 0 when undetected" ~count:30
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 13 in
  let ok = ref true in
  Array.iteri
    (fun fi d ->
      let expect =
        let m = ref max_int in
        Bitvec.iter_set d (fun u -> m := min !m adi.Adi_index.ndet.(u));
        if !m = max_int then 0 else !m
      in
      if adi.Adi_index.adi.(fi) <> expect then ok := false)
    adi.Adi_index.dsets;
  !ok

let adi_at_least_one =
  QCheck.Test.make ~name:"ADI(f) >= 1 for detected faults (f counts itself)" ~count:30
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 17 in
  Array.for_all2
    (fun d a -> if Bitvec.is_zero d then a = 0 else a >= 1)
    adi.Adi_index.dsets adi.Adi_index.adi

let adi_against_oracle () =
  (* Full cross-check on lion with the exhaustive vector set and the
     naive simulator. *)
  let c = Kiss.to_combinational (Kiss.lion ()) in
  let fl = Collapse.collapsed c in
  let pats = Patterns.exhaustive ~n_inputs:4 in
  let adi = Adi_index.compute fl pats in
  let table = Refsim.detection_table fl pats in
  let ndet_oracle =
    Array.init 16 (fun u ->
        Array.fold_left (fun acc row -> if row.(u) then acc + 1 else acc) 0 table)
  in
  check Alcotest.(array int) "ndet" ndet_oracle adi.Adi_index.ndet;
  Array.iteri
    (fun fi row ->
      let expect =
        Array.to_list (Array.mapi (fun u d -> if d then ndet_oracle.(u) else max_int) row)
        |> List.fold_left min max_int
        |> fun m -> if m = max_int then 0 else m
      in
      check Alcotest.int "adi" expect adi.Adi_index.adi.(fi))
    table

let adi_min_max_ratio () =
  let c = Kiss.to_combinational (Kiss.lion ()) in
  let fl = Collapse.collapsed c in
  let adi = Adi_index.compute fl (Patterns.exhaustive ~n_inputs:4) in
  match Adi_index.min_max adi with
  | None -> Alcotest.fail "lion faults must be detected by exhaustive U"
  | Some (lo, hi) ->
      check Alcotest.bool "min <= max" true (lo <= hi);
      check Alcotest.bool "min >= 1" true (lo >= 1);
      (match Adi_index.ratio adi with
      | Some r -> check (Alcotest.float 0.0001) "ratio" (float_of_int hi /. float_of_int lo) r
      | None -> Alcotest.fail "ratio must exist")

(* --- select_u ------------------------------------------------------ *)

let select_u_prefix_reaches_target =
  QCheck.Test.make ~name:"select_u prefix covers >= 90% of pool-detected faults" ~count:15
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let rng = Rng.create 19 in
  let sel = Adi_index.select_u ~pool:512 rng fl in
  let { Faultsim.detected; _ } = Faultsim.with_dropping fl sel.Adi_index.u in
  float_of_int detected
  >= 0.9 *. float_of_int sel.Adi_index.pool_detected -. 1.0

(* --- orderings ----------------------------------------------------- *)

let all_orders_are_permutations =
  QCheck.Test.make ~name:"every order is a permutation of the fault indices" ~count:20
    arb_circuit
  @@ fun c ->
  let fl, adi = setup_of c 60 23 in
  let n = Fault_list.count fl in
  List.for_all
    (fun kind ->
      let o = Ordering.order kind adi in
      let seen = Array.make n false in
      Array.length o = n
      && Array.for_all
           (fun i ->
             if i < 0 || i >= n || seen.(i) then false
             else begin
               seen.(i) <- true;
               true
             end)
           o)
    Ordering.all

let orig_is_identity =
  QCheck.Test.make ~name:"Forig is the identity order" ~count:10 arb_circuit
  @@ fun c ->
  let fl, adi = setup_of c 60 29 in
  Ordering.order Ordering.Orig adi = Array.init (Fault_list.count fl) Fun.id

let decr_is_sorted =
  QCheck.Test.make ~name:"Fdecr: detected faults by non-increasing ADI, zeros last" ~count:20
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 31 in
  let o = Ordering.order Ordering.Decr adi in
  let vals = Array.map (fun fi -> adi.Adi_index.adi.(fi)) o in
  (* Once a zero appears, everything after is zero; before that the
     sequence is non-increasing. *)
  let rec split i = if i < Array.length vals && vals.(i) > 0 then split (i + 1) else i in
  let z = split 0 in
  let ok = ref true in
  for i = 1 to z - 1 do
    if vals.(i) > vals.(i - 1) then ok := false
  done;
  for i = z to Array.length vals - 1 do
    if vals.(i) <> 0 then ok := false
  done;
  !ok

let incr0_reverses_decr =
  QCheck.Test.make ~name:"Fincr0 is non-decreasing on detected faults, zeros last" ~count:20
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 37 in
  let o = Ordering.order Ordering.Incr0 adi in
  let vals = Array.map (fun fi -> adi.Adi_index.adi.(fi)) o in
  let rec split i = if i < Array.length vals && vals.(i) > 0 then split (i + 1) else i in
  let z = split 0 in
  let ok = ref true in
  for i = 1 to z - 1 do
    if vals.(i) < vals.(i - 1) then ok := false
  done;
  for i = z to Array.length vals - 1 do
    if vals.(i) <> 0 then ok := false
  done;
  !ok

let zeros_first_variants =
  QCheck.Test.make ~name:"F0decr/F0dynm put exactly the zero-ADI faults first" ~count:20
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 41 in
  let n_zero =
    Array.fold_left (fun acc a -> if a = 0 then acc + 1 else acc) 0 adi.Adi_index.adi
  in
  List.for_all
    (fun kind ->
      let o = Ordering.order kind adi in
      let ok = ref true in
      Array.iteri
        (fun pos fi ->
          let z = adi.Adi_index.adi.(fi) = 0 in
          if pos < n_zero then begin
            if not z then ok := false
          end
          else if z then ok := false)
        o;
      !ok)
    [ Ordering.Decr0; Ordering.Dynm0 ]

let dynamic_matches_reference =
  QCheck.Test.make ~name:"heap-based dynamic order = literal paper procedure" ~count:25
    arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 50 43 in
  Ordering.order Ordering.Dynm adi = Ordering.dynamic_reference ~zero_first:false adi
  && Ordering.order Ordering.Dynm0 adi = Ordering.dynamic_reference ~zero_first:true adi

let dynamic_first_pick_is_max_adi =
  QCheck.Test.make ~name:"Fdynm starts with a maximum-ADI fault" ~count:20 arb_circuit
  @@ fun c ->
  let _, adi = setup_of c 60 47 in
  let o = Ordering.order Ordering.Dynm adi in
  let max_adi = Array.fold_left max 0 adi.Adi_index.adi in
  max_adi = 0 || adi.Adi_index.adi.(o.(0)) = max_adi

(* Exactly the names [to_string] prints: no reversed spellings, no
   case folding, and --order reports anything else as E-flag. *)
let ordering_names_roundtrip () =
  List.iter
    (fun k ->
      check Alcotest.bool "roundtrip" true (Ordering.of_string (Ordering.to_string k) = Some k))
    Ordering.all;
  List.iter
    (fun name ->
      check Alcotest.bool ("unknown " ^ name) true (Ordering.of_string name = None);
      match Run_flags.with_order_name name Run_config.default with
      | exception Util.Diagnostics.Failed d ->
          check Alcotest.bool ("--order " ^ name ^ " is E-flag") true
            (d.Util.Diagnostics.code = Util.Diagnostics.Invalid_flag)
      | _ -> Alcotest.failf "--order %s accepted" name)
    [ "bogus"; "dynm0"; "decr0"; "DYNM"; "0Dynm" ]

(* --- pipeline ------------------------------------------------------ *)

let pipeline_on_lion () =
  let c = Kiss.to_combinational (Kiss.lion ()) in
  let setup = Pipeline.prepare (Run_config.with_seed 1 Run_config.default) c in
  let runs = List.map (fun k -> (k, Pipeline.run_order setup k)) Ordering.all in
  List.iter
    (fun (k, r) ->
      check (Alcotest.float 0.0001)
        (Printf.sprintf "lion coverage 1.0 under %s" (Ordering.to_string k))
        1.0
        (Engine.coverage setup.Pipeline.faults r.Pipeline.engine))
    runs;
  (* All orders must detect the same fault universe, possibly with
     different test counts. *)
  let counts = List.map (fun (_, r) -> Pipeline.test_count r) runs in
  List.iter (fun n -> check Alcotest.bool "nonempty" true (n > 0)) counts

let pipeline_applies_scan () =
  let seq = Kiss.to_sequential (Kiss.lion ()) in
  check Alcotest.bool "sequential input" true (Circuit.has_state seq);
  let setup = Pipeline.prepare (Run_config.with_seed 1 Run_config.default) seq in
  check Alcotest.bool "combinational model" true (not (Circuit.has_state setup.Pipeline.circuit))


(* --- estimator variants -------------------------------------------- *)

let average_estimator_bounds =
  QCheck.Test.make ~name:"Average ADI lies between min and max ndet over D(f)" ~count:20
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let rng = Rng.create 51 in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:60 in
  let amin = Adi_index.compute ~estimator:Adi_index.Minimum fl pats in
  let aavg = Adi_index.compute ~estimator:Adi_index.Average fl pats in
  let ok = ref true in
  Array.iteri
    (fun fi d ->
      if Bitvec.is_zero d then begin
        if aavg.Adi_index.adi.(fi) <> 0 then ok := false
      end
      else begin
        let mx = ref 0 in
        Bitvec.iter_set d (fun u -> mx := max !mx amin.Adi_index.ndet.(u));
        if aavg.Adi_index.adi.(fi) < amin.Adi_index.adi.(fi) - 1
           || aavg.Adi_index.adi.(fi) > !mx
        then ok := false
      end)
    amin.Adi_index.dsets;
  !ok

let n_detection_converges =
  QCheck.Test.make ~name:"compute_n_detection with huge n equals compute" ~count:15
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let rng = Rng.create 53 in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:60 in
  let full = Adi_index.compute fl pats in
  let capped = Adi_index.compute_n_detection ~n:10_000 fl pats in
  full.Adi_index.adi = capped.Adi_index.adi

(* --- test-set reordering ------------------------------------------- *)

let reorder_is_permutation_and_steeper =
  QCheck.Test.make ~name:"greedy reorder permutes tests and never worsens AVE" ~count:10
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let r = Engine.run fl ~order:(Array.init (Fault_list.count fl) Fun.id) in
  let tests = r.Engine.tests in
  if Patterns.count tests = 0 then true
  else begin
    let order = Reorder.greedy fl tests in
    let sorted = Array.copy order in
    Array.sort compare sorted;
    let perm_ok = sorted = Array.init (Patterns.count tests) Fun.id in
    let before = Coverage.ave (Coverage.of_test_set fl tests) in
    let after = Coverage.ave (Coverage.of_test_set fl (Reorder.apply tests order)) in
    (* Greedy reordering targets steepness; allow equality and tiny
       greedy pathologies (AVE is not its exact objective) but not gross
       regressions. *)
    perm_ok && after <= (before *. 1.1) +. 1e-9
  end


(* --- independence baseline ----------------------------------------- *)

let ffr_roots_well_formed =
  QCheck.Test.make ~name:"FFR roots: root of a root is itself" ~count:30 arb_circuit
  @@ fun c ->
  let roots = Independence.ffr_roots c in
  let ok = ref true in
  Circuit.iter_nodes c (fun i ->
      if roots.(roots.(i)) <> roots.(i) then ok := false;
      (* A multi-fanout or output node is its own root; any other node
         has its unique consumer's root. *)
      if Circuit.fanout_count c i <> 1 || Circuit.is_output c i then begin
        if roots.(i) <> i then ok := false
      end
      else if roots.(i) <> roots.((Circuit.fanouts c i).(0)) then ok := false);
  !ok

let independence_order_is_permutation =
  QCheck.Test.make ~name:"Findep is a permutation" ~count:20 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let rng = Rng.create 61 in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:50 in
  let adi = Adi_index.compute fl pats in
  let o = Independence.order adi in
  let n = Fault_list.count fl in
  let seen = Array.make n false in
  Array.length o = n
  && Array.for_all
       (fun i ->
         if i < 0 || i >= n || seen.(i) then false
         else begin
           seen.(i) <- true;
           true
         end)
       o

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "adi"
    [
      ( "index",
        [
          Alcotest.test_case "lion vs oracle" `Quick adi_against_oracle;
          Alcotest.test_case "min/max/ratio" `Quick adi_min_max_ratio;
          qtest adi_matches_definition;
          qtest adi_at_least_one;
          qtest select_u_prefix_reaches_target;
          qtest average_estimator_bounds;
          qtest n_detection_converges;
          qtest reorder_is_permutation_and_steeper;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "names roundtrip" `Quick ordering_names_roundtrip;
          qtest all_orders_are_permutations;
          qtest orig_is_identity;
          qtest decr_is_sorted;
          qtest incr0_reverses_decr;
          qtest zeros_first_variants;
          qtest dynamic_matches_reference;
          qtest dynamic_first_pick_is_max_adi;
          qtest ffr_roots_well_formed;
          qtest independence_order_is_permutation;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "lion end-to-end" `Quick pipeline_on_lion;
          Alcotest.test_case "scan applied" `Quick pipeline_applies_scan;
        ] );
    ]
