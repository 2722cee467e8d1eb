(* Tests for SCOAP, PODEM, the generation engine, static compaction and
   redundancy removal.  The load-bearing properties: every cube PODEM
   returns really detects its target fault (checked against the fault
   simulator for random fills), and Untestable answers are confirmed
   exhaustively on small circuits. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module B = Circuit.Builder
module Rng = Util.Rng

let small_circuit_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun pis ->
    int_range 3 25 >>= fun gates ->
    int_bound 10_000 >>= fun seed ->
    return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ())))

let arb_circuit = QCheck.make small_circuit_gen

(* --- SCOAP -------------------------------------------------------- *)

let scoap_inverter_chain () =
  (* a -> NOT n1 -> NOT n2 (out).  CC grows by 1 per level; CO grows
     from the output inward. *)
  let b = B.create () in
  let a = B.input b "a" in
  let n1 = B.gate b Gate.Not "n1" [ a ] in
  let n2 = B.gate b Gate.Not "n2" [ n1 ] in
  B.mark_output b n2;
  let c = B.finish b in
  let s = Scoap.compute c in
  check Alcotest.int "cc0 a" 1 (Scoap.cc0 s a);
  check Alcotest.int "cc1 a" 1 (Scoap.cc1 s a);
  check Alcotest.int "cc0 n1" 2 (Scoap.cc0 s n1);
  check Alcotest.int "cc0 n2" 3 (Scoap.cc0 s n2);
  check Alcotest.int "co n2" 0 (Scoap.co s n2);
  check Alcotest.int "co n1" 1 (Scoap.co s n1);
  check Alcotest.int "co a" 2 (Scoap.co s a)

let scoap_and_gate () =
  (* g = AND(a, b): CC1(g) = CC1(a)+CC1(b)+1 = 3; CC0(g) = min+1 = 2;
     CO(a) = CO(g) + CC1(b) + 1 = 2. *)
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let g = B.gate b Gate.And "g" [ a; bb ] in
  B.mark_output b g;
  let c = B.finish b in
  let s = Scoap.compute c in
  check Alcotest.int "cc1 g" 3 (Scoap.cc1 s g);
  check Alcotest.int "cc0 g" 2 (Scoap.cc0 s g);
  check Alcotest.int "co a" 2 (Scoap.co s a);
  check Alcotest.int "co_pin" 2 (Scoap.co_pin s ~gate:g ~pin:0)

let scoap_const () =
  let b = B.create () in
  let a = B.input b "a" in
  let z = B.const b "z" false in
  let g = B.gate b Gate.Or "g" [ a; z ] in
  B.mark_output b g;
  let c = B.finish b in
  let s = Scoap.compute c in
  check Alcotest.int "cc0 const0" 0 (Scoap.cc0 s z);
  check Alcotest.int "cc1 const0 infinite" Scoap.infinite_cost (Scoap.cc1 s z)

let scoap_finite_on_live =
  QCheck.Test.make ~name:"controllabilities finite on generated circuits" ~count:50 arb_circuit
  @@ fun c ->
  let s = Scoap.compute c in
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      if Scoap.cc0 s n >= Scoap.infinite_cost && Scoap.cc1 s n >= Scoap.infinite_cost then
        ok := false);
  !ok

(* --- PODEM -------------------------------------------------------- *)

let podem_cube_detects =
  QCheck.Test.make ~name:"PODEM cubes detect their fault under any fill" ~count:40 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let scoap = Scoap.compute c in
  let ctx = Podem.context c scoap in
  let rng = Rng.create 55 in
  let ok = ref true in
  for fi = 0 to Fault_list.count fl - 1 do
    match Podem.generate_in ctx (Fault_list.get fl fi) with
    | Podem.Test cube ->
        (* Try three random fills; all must detect. *)
        for _ = 1 to 3 do
          let vec = Engine.fill_cube rng cube in
          if not (Faultsim.detects c (Fault_list.get fl fi) vec) then ok := false
        done
    | Podem.Untestable | Podem.Aborted | Podem.Out_of_budget -> ()
  done;
  !ok

let podem_untestable_is_really_untestable =
  QCheck.Test.make ~name:"PODEM Untestable confirmed by exhaustive simulation" ~count:20
    (QCheck.make
       QCheck.Gen.(
         int_range 2 4 >>= fun pis ->
         int_range 3 14 >>= fun gates ->
         int_bound 10_000 >>= fun seed ->
         return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ()))))
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let scoap = Scoap.compute c in
  let ctx = Podem.context c scoap in
  let pats = Patterns.exhaustive ~n_inputs:(Array.length (Circuit.inputs c)) in
  let sets = Faultsim.detection_sets fl pats in
  let ok = ref true in
  for fi = 0 to Fault_list.count fl - 1 do
    match Podem.generate_in ~backtrack_limit:100_000 ctx (Fault_list.get fl fi) with
    | Podem.Untestable -> if not (Util.Bitvec.is_zero sets.(fi)) then ok := false
    | Podem.Test _ -> if Util.Bitvec.is_zero sets.(fi) then ok := false
    | Podem.Aborted | Podem.Out_of_budget -> ()
  done;
  !ok

let podem_known_redundant () =
  (* z = OR(a, NOT a) is constant 1: its stem s-a-1 is undetectable. *)
  let b = B.create () in
  let a = B.input b "a" in
  let na = B.gate b Gate.Not "na" [ a ] in
  let z = B.gate b Gate.Or "z" [ a; na ] in
  B.mark_output b z;
  let c = B.finish b in
  let scoap = Scoap.compute c in
  match Podem.generate c scoap (Fault.stem (Circuit.find_exn c "z") true) with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "found a test for a redundant fault"
  | Podem.Aborted | Podem.Out_of_budget -> Alcotest.fail "aborted on a trivial redundancy"

let podem_c17_all_testable () =
  (* c17 is fully testable. *)
  let c = Library.c17 () in
  let fl = Fault_list.full c in
  let scoap = Scoap.compute c in
  let ctx = Podem.context c scoap in
  for fi = 0 to Fault_list.count fl - 1 do
    match Podem.generate_in ctx (Fault_list.get fl fi) with
    | Podem.Test _ -> ()
    | Podem.Untestable | Podem.Aborted | Podem.Out_of_budget ->
        Alcotest.failf "no test for %s" (Fault.to_string c (Fault_list.get fl fi))
  done

let podem_pi_fault () =
  (* A PI stem fault on a buffer-to-output circuit. *)
  let b = B.create () in
  let a = B.input b "a" in
  let g = B.gate b Gate.Buf "g" [ a ] in
  B.mark_output b g;
  let c = B.finish b in
  let scoap = Scoap.compute c in
  (match Podem.generate c scoap (Fault.stem a false) with
  | Podem.Test cube ->
      check Alcotest.bool "requires a=1" true (cube.(0) = Ternary.One)
  | _ -> Alcotest.fail "sa0 on PI must be testable");
  match Podem.generate c scoap (Fault.stem a true) with
  | Podem.Test cube -> check Alcotest.bool "requires a=0" true (cube.(0) = Ternary.Zero)
  | _ -> Alcotest.fail "sa1 on PI must be testable"

(* --- engine ------------------------------------------------------- *)

let engine_full_coverage_on_c17 () =
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  let r = Engine.run fl ~order:(Array.init (Fault_list.count fl) Fun.id) in
  check (Alcotest.float 0.0001) "coverage 1.0" 1.0 (Engine.coverage fl r);
  check Alcotest.(list int) "no untestable" [] r.Engine.untestable;
  check Alcotest.(list int) "no aborted" [] r.Engine.aborted;
  (* Every fault's detecting test really detects it. *)
  Array.iteri
    (fun fi t ->
      check Alcotest.bool "detected_by valid" true
        (t >= 0
        && Faultsim.detects c (Fault_list.get fl fi) (Patterns.vector r.Engine.tests t)))
    r.Engine.detected_by

let engine_escalation_recovers () =
  (* multiplier ~width:4 under a tight backtrack limit aborts a batch of
     faults; escalation passes (doubled limit each) win most back. *)
  let c = Library.multiplier ~width:4 in
  let fl = Collapse.collapsed c in
  let order = Array.init (Fault_list.count fl) Fun.id in
  let base = { Engine.default_config with Engine.backtrack_limit = 16; Engine.retries = 0 } in
  let r0 = Engine.run fl ~order ~config:base in
  let r3 = Engine.run fl ~order ~config:{ base with Engine.retries = 3 } in
  check Alcotest.bool "baseline aborts some faults" true (r0.Engine.aborted <> []);
  check Alcotest.int "no recovery without retries" 0 r0.Engine.retry_recovered;
  check Alcotest.bool "escalation reduces the abort count" true
    (List.length r3.Engine.aborted < List.length r0.Engine.aborted);
  (* Pass 1 of the retrying run is identical to the retries=0 run, so
     every baseline abort is either still aborted or counted recovered. *)
  check Alcotest.int "recovered accounts for the difference"
    (List.length r0.Engine.aborted - List.length r3.Engine.aborted)
    r3.Engine.retry_recovered

let engine_budget_classification () =
  (* A zero per-fault slice expires before any search: every fault is
     out_of_budget — not aborted, not untestable — and with the run
     budget unlimited the run still completes (not interrupted). *)
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let cfg = { Engine.default_config with Engine.per_fault_budget_s = Some 0.0 } in
  let r = Engine.run fl ~order:(Array.init n Fun.id) ~config:cfg in
  check Alcotest.int "all out of budget" n (List.length r.Engine.out_of_budget);
  check Alcotest.(list int) "none aborted" [] r.Engine.aborted;
  check Alcotest.(list int) "none untestable" [] r.Engine.untestable;
  check Alcotest.int "no tests" 0 (Patterns.count r.Engine.tests);
  check Alcotest.bool "not interrupted" false r.Engine.interrupted

let engine_resume_determinism () =
  (* Stop mid-run via should_stop, resume from the snapshot, and demand
     the exact result of the uninterrupted run — tests, detections and
     even search statistics. *)
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  let order = Array.init (Fault_list.count fl) Fun.id in
  let full = Engine.run fl ~order in
  let polls = ref 0 in
  let stopped =
    Engine.run fl ~order
      ~should_stop:(fun () -> incr polls; !polls > 5)
  in
  check Alcotest.bool "interrupted" true stopped.Engine.interrupted;
  check Alcotest.bool "made partial progress" true
    (Patterns.count stopped.Engine.tests < Patterns.count full.Engine.tests);
  let snap = Option.get stopped.Engine.snapshot in
  let resumed = Engine.run fl ~order ~resume:snap in
  check Alcotest.bool "completed" false resumed.Engine.interrupted;
  check Alcotest.int "same test count" (Patterns.count full.Engine.tests)
    (Patterns.count resumed.Engine.tests);
  for t = 0 to Patterns.count full.Engine.tests - 1 do
    check Alcotest.bool "same vector" true
      (Patterns.vector full.Engine.tests t = Patterns.vector resumed.Engine.tests t)
  done;
  check Alcotest.(array int) "same detections" full.Engine.detected_by
    resumed.Engine.detected_by;
  check Alcotest.bool "same search stats" true (full.Engine.stats = resumed.Engine.stats)

let engine_rejects_bad_order () =
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  check Alcotest.bool "non-permutation rejected" true
    (try
       ignore (Engine.run fl ~order:(Array.make (Fault_list.count fl) 0));
       false
     with Invalid_argument _ -> true)

let engine_order_affects_result =
  QCheck.Test.make ~name:"engine detects everything detectable regardless of order" ~count:10
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let fwd = Engine.run fl ~order:(Array.init n Fun.id) in
  let bwd = Engine.run fl ~order:(Array.init n (fun i -> n - 1 - i)) in
  let det r =
    Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 r.Engine.detected_by
  in
  (* Both runs resolve each fault (no aborts on these small circuits),
     so detected + untestable must cover everything in both orders. *)
  det fwd + List.length fwd.Engine.untestable + List.length fwd.Engine.aborted = n
  && det bwd + List.length bwd.Engine.untestable + List.length bwd.Engine.aborted = n

let fill_cube_respects_assignments () =
  let rng = Rng.create 3 in
  let cube = [| Ternary.One; Ternary.X; Ternary.Zero |] in
  for _ = 1 to 10 do
    let v = Engine.fill_cube rng cube in
    check Alcotest.bool "pos 0" true v.(0);
    check Alcotest.bool "pos 2" false v.(2)
  done

(* --- determinism ----------------------------------------------------- *)

(* Everything a resumed run must reproduce: vectors, classifications,
   recovery/interrupt status and the accumulated search statistics. *)
let result_fingerprint (r : Engine.result) =
  ( List.init (Patterns.count r.Engine.tests) (Patterns.vector r.Engine.tests),
    (r.Engine.detected_by, r.Engine.targeted),
    (r.Engine.untestable, r.Engine.aborted, r.Engine.out_of_budget),
    (r.Engine.retry_recovered, r.Engine.interrupted),
    r.Engine.stats )

let spec_resume_mid_window () =
  (* Stop inside an escalation pass, not the first pass, and resume:
     the pass structure in the snapshot must carry the run on to the
     uninterrupted result. *)
  let c = Library.multiplier ~width:3 in
  let fl = Collapse.collapsed c in
  let nf = Fault_list.count fl in
  let order = Array.init nf Fun.id in
  let config = { Engine.default_config with Engine.backtrack_limit = 1; retries = 3 } in
  let full = Engine.run fl ~order ~config in
  (* One poll per schedule position: the first pass has [nf]. *)
  let polls = ref 0 in
  let stopped =
    Engine.run fl ~order ~config ~should_stop:(fun () -> incr polls; !polls > nf + 1)
  in
  let snap = Option.get stopped.Engine.snapshot in
  check Alcotest.bool "stopped in an escalation pass" true (snap.Engine.snap_pass >= 1);
  let resumed = Engine.run fl ~order ~config ~resume:snap in
  check Alcotest.bool "completed" false resumed.Engine.interrupted;
  check Alcotest.bool "resume reproduces the uninterrupted run" true
    (result_fingerprint resumed = result_fingerprint full)

let spec_report_identical () =
  (* The harness report (the user-visible summary) is byte-identical
     for any [jobs]: it sizes only the setup's simulation pool. *)
  let c = Library.multiplier ~width:4 in
  let run cfg = (Harness.run_atpg_cfg cfg c).Harness.report in
  let base = Run_config.default |> Run_config.with_backtrack_limit 16 in
  check Alcotest.string "reports byte-identical" (run (base |> Run_config.with_jobs 1))
    (run (base |> Run_config.with_jobs 4))

let engine_rejects_bad_window () =
  (* [window] survives only as a validated service parameter: every
     op still rejects a value below 1 with the flag-error code. *)
  let t = Service.Session.create ~capacity:1 () in
  List.iter
    (fun op ->
      match
        (Service.Session.handle t
           (Service.Protocol.single op
              [ ("circuit", Util.Json.Str "c17"); ("window", Util.Json.Int 0) ]))
          .Service.Protocol.payload
      with
      | Error e -> check Alcotest.string (op ^ ": window 0 rejected") "E-flag" e.Service.Protocol.code
      | Ok _ -> Alcotest.failf "%s accepted window 0" op)
    [ "load"; "atpg" ]

(* --- compaction --------------------------------------------------- *)

let compact_preserves_coverage =
  QCheck.Test.make ~name:"reverse-order compaction never loses coverage" ~count:15 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let r = Engine.run fl ~order:(Array.init n Fun.id) in
  let before = Faultsim.with_dropping fl r.Engine.tests in
  let compacted = Compact.reverse_order fl r.Engine.tests in
  let after = Faultsim.with_dropping fl compacted.Compact.tests in
  after.Faultsim.detected = before.Faultsim.detected
  && Patterns.count compacted.Compact.tests <= Patterns.count r.Engine.tests

(* --- redundancy removal ------------------------------------------- *)

let irredundant_removes_known () =
  (* OR(a, NOT a) = 1 feeding an AND leaves g = b after removal. *)
  let b = B.create () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let na = B.gate b Gate.Not "na" [ a ] in
  let t = B.gate b Gate.Or "t" [ a; na ] in
  let g = B.gate b Gate.And "g" [ t; bb ] in
  B.mark_output b g;
  let c = B.finish b in
  let c', report = Irredundant.remove c in
  check Alcotest.bool "something removed" true (report.Irredundant.removed > 0);
  check Alcotest.bool "shrunk" true (Circuit.node_count c' < Circuit.node_count c);
  (* The result behaves like g = b. *)
  let o = (Circuit.outputs c').(0) in
  let v1 = Goodsim.eval_scalar c' [| false; true |] in
  let v0 = Goodsim.eval_scalar c' [| true; false |] in
  check Alcotest.bool "g = b (b=1)" true v1.(o);
  check Alcotest.bool "g = b (b=0)" false v0.(o)

let irredundant_converged_has_no_redundancy =
  QCheck.Test.make
    ~name:"after removal every undetectable fault is structurally unremovable" ~count:10
    (QCheck.make
       QCheck.Gen.(
         int_range 2 4 >>= fun pis ->
         int_range 3 14 >>= fun gates ->
         int_bound 10_000 >>= fun seed ->
         return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ()))))
  @@ fun c ->
  let c', _ = Irredundant.remove ~backtrack_limit:100_000 ~max_rounds:50 c in
  let fl = Collapse.collapsed c' in
  let pats = Patterns.exhaustive ~n_inputs:(Array.length (Circuit.inputs c')) in
  let sets = Faultsim.detection_sets fl pats in
  (* Converged removal leaves only faults whose substitution is a no-op:
     stems of nodes nothing consumes (orphaned inputs) and constant
     outputs stuck at their own value. *)
  let unremovable fi =
    let f = Fault_list.get fl fi in
    match f.Fault.site with
    | Fault.Branch _ -> false
    | Fault.Stem s -> (
        Circuit.fanout_count c' s = 0
        &&
        match Circuit.kind c' s with
        | Gate.Const0 -> not f.Fault.stuck_at
        | Gate.Const1 -> f.Fault.stuck_at
        | _ -> not (Circuit.is_output c' s))
  in
  let ok = ref true in
  Array.iteri (fun fi d -> if Util.Bitvec.is_zero d && not (unremovable fi) then ok := false) sets;
  !ok


let set_cover_preserves_coverage =
  QCheck.Test.make ~name:"set-cover compaction preserves coverage and never grows the set"
    ~count:10 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let r = Engine.run fl ~order:(Array.init n Fun.id) in
  let before = Faultsim.with_dropping fl r.Engine.tests in
  let sc = Compact.set_cover fl r.Engine.tests in
  let after = Faultsim.with_dropping fl sc.Compact.tests in
  after.Faultsim.detected = before.Faultsim.detected
  && Patterns.count sc.Compact.tests <= Patterns.count r.Engine.tests


(* --- D-algorithm --------------------------------------------------- *)

let dalg_cube_detects =
  QCheck.Test.make ~name:"D-algorithm cubes detect their fault under any fill" ~count:40
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let scoap = Scoap.compute c in
  let rng = Rng.create 57 in
  let ok = ref true in
  for fi = 0 to Fault_list.count fl - 1 do
    match Dalg.generate c scoap (Fault_list.get fl fi) with
    | Podem.Test cube ->
        for _ = 1 to 3 do
          let vec = Engine.fill_cube rng cube in
          if not (Faultsim.detects c (Fault_list.get fl fi) vec) then ok := false
        done
    | Podem.Untestable | Podem.Aborted | Podem.Out_of_budget -> ()
  done;
  !ok

let dalg_untestable_is_really_untestable =
  QCheck.Test.make ~name:"D-algorithm Untestable confirmed by exhaustive simulation" ~count:20
    (QCheck.make
       QCheck.Gen.(
         int_range 2 4 >>= fun pis ->
         int_range 3 14 >>= fun gates ->
         int_bound 10_000 >>= fun seed ->
         return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ()))))
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let scoap = Scoap.compute c in
  let pats = Patterns.exhaustive ~n_inputs:(Array.length (Circuit.inputs c)) in
  let sets = Faultsim.detection_sets fl pats in
  let ok = ref true in
  for fi = 0 to Fault_list.count fl - 1 do
    match Dalg.generate ~backtrack_limit:100_000 c scoap (Fault_list.get fl fi) with
    | Podem.Untestable -> if not (Util.Bitvec.is_zero sets.(fi)) then ok := false
    | Podem.Test _ -> if Util.Bitvec.is_zero sets.(fi) then ok := false
    | Podem.Aborted | Podem.Out_of_budget -> ()
  done;
  !ok

let dalg_agrees_with_podem =
  QCheck.Test.make ~name:"D-algorithm and PODEM agree on testability" ~count:20
    (QCheck.make
       QCheck.Gen.(
         int_range 2 4 >>= fun pis ->
         int_range 3 14 >>= fun gates ->
         int_bound 10_000 >>= fun seed ->
         return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ()))))
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let scoap = Scoap.compute c in
  let ctx = Podem.context c scoap in
  let ok = ref true in
  for fi = 0 to Fault_list.count fl - 1 do
    let p = Podem.generate_in ~backtrack_limit:100_000 ctx (Fault_list.get fl fi) in
    let d = Dalg.generate ~backtrack_limit:100_000 c scoap (Fault_list.get fl fi) in
    match (p, d) with
    | Podem.Test _, Podem.Untestable | Podem.Untestable, Podem.Test _ -> ok := false
    | _ -> ()
  done;
  !ok

let dalg_known_redundant () =
  let b = B.create () in
  let a = B.input b "a" in
  let na = B.gate b Gate.Not "na" [ a ] in
  let z = B.gate b Gate.Or "z" [ a; na ] in
  B.mark_output b z;
  let c = B.finish b in
  let scoap = Scoap.compute c in
  match Dalg.generate c scoap (Fault.stem (Circuit.find_exn c "z") true) with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "D-alg found a test for a redundant fault"
  | Podem.Aborted | Podem.Out_of_budget -> Alcotest.fail "D-alg aborted on a trivial redundancy"

let dalg_c17_all_testable () =
  let c = Library.c17 () in
  let fl = Fault_list.full c in
  let scoap = Scoap.compute c in
  for fi = 0 to Fault_list.count fl - 1 do
    match Dalg.generate c scoap (Fault_list.get fl fi) with
    | Podem.Test _ -> ()
    | Podem.Untestable | Podem.Aborted | Podem.Out_of_budget ->
        Alcotest.failf "D-alg: no test for %s" (Fault.to_string c (Fault_list.get fl fi))
  done


let compacting_engine_sound =
  QCheck.Test.make ~name:"dynamic compaction keeps coverage, each test detects its target"
    ~count:10 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let order = Array.init n Fun.id in
  let plain = Engine.run fl ~order in
  let comp = Engine.run_compacting fl ~order in
  let det r = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 r.Engine.detected_by in
  det comp = det plain
  && Array.for_all2
       (fun fi t ->
         Faultsim.detects c (Fault_list.get fl fi) (Patterns.vector comp.Engine.tests t))
       comp.Engine.targeted
       (Array.init (Patterns.count comp.Engine.tests) Fun.id)


(* [run_compacting] is [run]'s loop plus the secondary-target step;
   with no secondaries allowed it must be [run] at one pass. *)
let compacting_without_secondaries_is_run =
  QCheck.Test.make ~name:"run_compacting ~secondary_limit:0 = run at retries 0" ~count:20
    QCheck.(pair arb_circuit (oneofl [ 0; 1; 256 ]))
  @@ fun (c, backtrack_limit) ->
  let fl = Collapse.collapsed c in
  let n = Fault_list.count fl in
  let order = Array.init n (fun i -> n - 1 - i) in
  let config = { Engine.default_config with Engine.retries = 0; backtrack_limit } in
  let plain = Engine.run ~config fl ~order in
  let comp = Engine.run_compacting ~config ~secondary_limit:0 fl ~order in
  Patterns.to_strings plain.Engine.tests = Patterns.to_strings comp.Engine.tests
  && plain.Engine.detected_by = comp.Engine.detected_by
  && plain.Engine.untestable = comp.Engine.untestable
  && plain.Engine.aborted = comp.Engine.aborted

(* Ablation A8's test counts at seed 1 (EXPERIMENTS.md), the only
   end-to-end figures of the compaction path. *)
let compaction_ablation_counts () =
  List.iter
    (fun (name, orig, dynm0) ->
      let setup = Pipeline.prepare Run_config.default (Suite.build_by_name name) in
      let config = { Engine.default_config with Engine.seed = Pipeline.seed setup } in
      let count kind =
        let order = Ordering.order kind setup.Pipeline.adi in
        Patterns.count (Engine.run_compacting ~config setup.Pipeline.faults ~order).Engine.tests
      in
      check Alcotest.int (name ^ " orig+dyncomp") orig (count Ordering.Orig);
      check Alcotest.int (name ^ " 0dynm+dyncomp") dynm0 (count Ordering.Dynm0))
    [ ("syn208", 24, 19); ("syn298", 28, 25) ]

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "atpg"
    [
      ( "scoap",
        [
          Alcotest.test_case "inverter chain" `Quick scoap_inverter_chain;
          Alcotest.test_case "and gate" `Quick scoap_and_gate;
          Alcotest.test_case "constants" `Quick scoap_const;
          qtest scoap_finite_on_live;
        ] );
      ( "podem",
        [
          Alcotest.test_case "known redundant" `Quick podem_known_redundant;
          Alcotest.test_case "c17 all testable" `Quick podem_c17_all_testable;
          Alcotest.test_case "pi faults" `Quick podem_pi_fault;
          qtest podem_cube_detects;
          qtest podem_untestable_is_really_untestable;
        ] );
      ( "engine",
        [
          Alcotest.test_case "c17 full coverage" `Quick engine_full_coverage_on_c17;
          qtest compacting_engine_sound;
          qtest compacting_without_secondaries_is_run;
          Alcotest.test_case "compaction ablation counts" `Quick compaction_ablation_counts;
          Alcotest.test_case "rejects bad order" `Quick engine_rejects_bad_order;
          Alcotest.test_case "abort-retry escalation" `Quick engine_escalation_recovers;
          Alcotest.test_case "budget classification" `Quick engine_budget_classification;
          Alcotest.test_case "resume determinism" `Quick engine_resume_determinism;
          Alcotest.test_case "fill cube" `Quick fill_cube_respects_assignments;
          qtest engine_order_affects_result;
          Alcotest.test_case "resume mid-window" `Quick spec_resume_mid_window;
          Alcotest.test_case "speculative report identical" `Quick spec_report_identical;
          Alcotest.test_case "rejects window 0" `Quick engine_rejects_bad_window;
        ] );
      ("compact", [ qtest compact_preserves_coverage; qtest set_cover_preserves_coverage ]);
      ( "dalg",
        [
          Alcotest.test_case "known redundant" `Quick dalg_known_redundant;
          Alcotest.test_case "c17 all testable" `Quick dalg_c17_all_testable;
          qtest dalg_cube_detects;
          qtest dalg_untestable_is_really_untestable;
          qtest dalg_agrees_with_podem;
        ] );
      ( "irredundant",
        [
          Alcotest.test_case "removes known redundancy" `Quick irredundant_removes_known;
          qtest irredundant_converged_has_no_redundancy;
        ] );
    ]
