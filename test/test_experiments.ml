(* Tests for the experiment harness: the report formatters produce the
   paper's artefacts from real (small) runs, and the shared evaluation
   machinery is consistent. *)

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A small evaluation reused by several cases (lion: fast). *)
let lion_eval =
  lazy
    (Evaluation.evaluate ~paper_name:"lion" (Kiss.to_combinational (Kiss.lion ())))

let table1_mentions_all_vectors () =
  let s = Reports.table1 () in
  check Alcotest.bool "has title" true (contains s "Table 1");
  check Alcotest.bool "has ndet row" true (contains s "ndet(u)");
  check Alcotest.bool "has worked examples" true (contains s "ADI(f)");
  check Alcotest.bool "has dynamic steps" true (contains s "step 4")

let table4_row_shape () =
  let ev = Lazy.force lion_eval in
  let s = Reports.table4 [ ev ] in
  check Alcotest.bool "title" true (contains s "Table 4");
  check Alcotest.bool "row" true (contains s "lion");
  (* lion has 4 inputs. *)
  check Alcotest.bool "inp column" true (contains s "4")

let table5_has_average () =
  let ev = Lazy.force lion_eval in
  let s = Reports.table5 [ ev ] in
  check Alcotest.bool "title" true (contains s "Table 5");
  check Alcotest.bool "average row" true (contains s "average")

let table5_counts_match_runs () =
  let ev = Lazy.force lion_eval in
  let s = Reports.table5 [ ev ] in
  let n = Pipeline.test_count (Evaluation.run ev Ordering.Dynm0) in
  check Alcotest.bool "0dynm count appears" true (contains s (string_of_int n))

let table6_table7_ratios () =
  let ev = Lazy.force lion_eval in
  let s6 = Reports.table6 [ ev ] and s7 = Reports.table7 [ ev ] in
  check Alcotest.bool "t6 title" true (contains s6 "Table 6");
  check Alcotest.bool "t7 title" true (contains s7 "Table 7");
  (* orig column is 1.000 by construction. *)
  check Alcotest.bool "t6 unit ratio" true (contains s6 "1.000");
  check Alcotest.bool "t7 unit ratio" true (contains s7 "1.000")

let figure1_has_markers () =
  let ev = Lazy.force lion_eval in
  let s = Reports.figure1 ev in
  check Alcotest.bool "title" true (contains s "Figure 1");
  check Alcotest.bool "legend orig" true (contains s "o - orig");
  check Alcotest.bool "legend dynm" true (contains s "d - dynm");
  check Alcotest.bool "legend 0dynm" true (contains s "z - 0dynm")

let evaluation_is_consistent () =
  let ev = Lazy.force lion_eval in
  (* AVE ratio of orig against itself is exactly 1. *)
  check (Alcotest.float 1e-9) "orig ave ratio" 1.0 (Evaluation.ave_ratio ev Ordering.Orig);
  check (Alcotest.float 1e-9) "orig rt ratio" 1.0
    (Evaluation.runtime_ratio ev Ordering.Orig);
  let curve = Evaluation.curve ev Ordering.Orig in
  check Alcotest.bool "curve nonempty" true (Coverage.tests curve > 0)

let ablation_u_renders () =
  let s = Reports.ablation_u (Kiss.to_combinational (Kiss.lion ())) ~seed:1 in
  check Alcotest.bool "title" true (contains s "Ablation A2");
  check Alcotest.bool "has rows" true (contains s "0.90")

let ablation_static_renders () =
  let ev =
    Evaluation.evaluate
      ~orders:[ Ordering.Decr; Ordering.Decr0; Ordering.Dynm; Ordering.Dynm0 ]
      ~paper_name:"lion"
      (Kiss.to_combinational (Kiss.lion ()))
  in
  let s = Reports.ablation_static [ ev ] in
  check Alcotest.bool "title" true (contains s "Ablation A1");
  check Alcotest.bool "row" true (contains s "lion")

(* The paper's relations over the 12 small circuits at seed 1: the
   mean test count of Table 5 orders 0dynm < dynm < orig < incr0, and
   dynm's coverage curve is steeper than orig's on average (Table 7's
   AVE ratio below 1). *)
let paper_relations_hold () =
  let evs = Harness.evaluations ~seed:1 ~full:false () in
  check Alcotest.int "circuits" 12 (List.length evs);
  let mean f = List.fold_left (fun a ev -> a +. f ev) 0.0 evs /. float_of_int (List.length evs) in
  let tests kind = mean (fun ev -> float_of_int (Pipeline.test_count (Evaluation.run ev kind))) in
  let t0dynm = tests Ordering.Dynm0 and tdynm = tests Ordering.Dynm in
  let torig = tests Ordering.Orig and tincr0 = tests Ordering.Incr0 in
  let relation = Printf.sprintf "%.1f < %.1f < %.1f < %.1f" t0dynm tdynm torig tincr0 in
  check Alcotest.bool ("0dynm < dynm < orig < incr0: " ^ relation) true
    (t0dynm < tdynm && tdynm < torig && torig < tincr0);
  let ave = mean (fun ev -> Evaluation.ave_ratio ev Ordering.Dynm) in
  check Alcotest.bool (Printf.sprintf "mean AVE dynm/orig %.3f < 1" ave) true (ave < 1.0)

let harness_rejects_unknown () =
  check Alcotest.bool "unknown experiment" true
    (try
       ignore (Harness.run_experiment ~full:false "nope");
       false
     with Invalid_argument _ -> true)

let harness_names_cover_run () =
  (* every name except "all" renders something; use only the cheap ones
     here to keep the suite fast. *)
  List.iter
    (fun w ->
      let s = Harness.run_experiment ~full:false w in
      check Alcotest.bool (w ^ " nonempty") true (String.length s > 0))
    [ "table1" ]

(* --- checkpoint/resume -------------------------------------------- *)

module D = Util.Diagnostics

let with_temp_file f =
  let path = Filename.temp_file "adi-ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* A real snapshot from a stopped engine run, for round-trip tests. *)
let c17_checkpoint () =
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  let order = Array.init (Fault_list.count fl) Fun.id in
  let polls = ref 0 in
  let r = Engine.run fl ~order ~should_stop:(fun () -> incr polls; !polls > 2) in
  ( c,
    {
      Checkpoint.circuit_title = "c17";
      circuit_digest = Checkpoint.digest_of_circuit c;
      seed = 1;
      order_kind = "0dynm";
      backtrack_limit = 256;
      retries = 1;
      order;
      snapshot = Option.get r.Engine.snapshot;
    } )

let checkpoint_roundtrip () =
  let _, ck = c17_checkpoint () in
  with_temp_file @@ fun path ->
  Checkpoint.save path ck;
  let back = Checkpoint.load path in
  check Alcotest.string "title" ck.Checkpoint.circuit_title back.Checkpoint.circuit_title;
  check Alcotest.string "digest" ck.Checkpoint.circuit_digest back.Checkpoint.circuit_digest;
  check Alcotest.(array int) "order" ck.Checkpoint.order back.Checkpoint.order;
  check Alcotest.int "resume position" ck.Checkpoint.snapshot.Engine.snap_pos
    back.Checkpoint.snapshot.Engine.snap_pos;
  check Alcotest.bool "whole snapshot survives" true
    (ck.Checkpoint.snapshot = back.Checkpoint.snapshot)

let checkpoint_rejects_garbage () =
  with_temp_file @@ fun path ->
  let oc = open_out_bin path in
  output_string oc "not a checkpoint at all\n";
  close_out oc;
  match Checkpoint.load path with
  | exception D.Failed d ->
      check Alcotest.bool "format code" true (d.D.code = D.Checkpoint_format)
  | _ -> Alcotest.fail "garbage accepted"

let checkpoint_rejects_truncated () =
  let _, ck = c17_checkpoint () in
  with_temp_file @@ fun path ->
  Checkpoint.save path ck;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 8));
  close_out oc;
  match Checkpoint.load path with
  | exception D.Failed d ->
      check Alcotest.bool "format code" true (d.D.code = D.Checkpoint_format)
  | _ -> Alcotest.fail "truncated payload accepted"

let checkpoint_matches_catches_drift () =
  let c, ck = c17_checkpoint () in
  let ok ?(seed = 1) ?(order_kind = "0dynm") ?(backtrack_limit = 256) ?(retries = 1) ?order
      () =
    let order = Option.value order ~default:ck.Checkpoint.order in
    Checkpoint.matches ck ~circuit:c ~seed ~order_kind ~backtrack_limit ~retries ~order
  in
  check Alcotest.bool "same parameters accepted" true (ok () = Ok ());
  let rejects what r =
    match r with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ " drift not caught")
  in
  rejects "seed" (ok ~seed:2 ());
  rejects "order kind" (ok ~order_kind:"dynm" ());
  rejects "backtrack limit" (ok ~backtrack_limit:128 ());
  rejects "order array"
    (ok ~order:(Array.of_list (List.rev (Array.to_list ck.Checkpoint.order))) ())

(* A run that checkpoints to [path] and resumes from it when present. *)
let resuming ?(jobs = 1) path =
  Run_config.(default |> with_jobs jobs |> with_checkpoint (Some path) |> with_resume true)

let run_atpg_resume_byte_identical () =
  let c = Library.c17 () in
  let full = Harness.run_atpg_cfg Run_config.default c in
  with_temp_file @@ fun path ->
  Sys.remove path;
  (* an absent file must mean "fresh run", not an error *)
  let polls = ref 0 in
  let interrupted =
    Harness.run_atpg_cfg ~should_stop:(fun () -> incr polls; !polls > 3) (resuming path) c
  in
  check Alcotest.bool "interrupted" true interrupted.Harness.result.Engine.interrupted;
  check Alcotest.(option string) "checkpoint written" (Some path)
    interrupted.Harness.checkpoint_saved;
  check Alcotest.bool "file exists" true (Sys.file_exists path);
  let resumed = Harness.run_atpg_cfg (resuming path) c in
  check Alcotest.string "byte-identical report" full.Harness.report resumed.Harness.report;
  check Alcotest.bool "completed run removes the checkpoint" false (Sys.file_exists path)

(* [jobs] is deliberately absent from checkpoint matching: a checkpoint
   written by a serial run must resume under any pool size with the
   same bytes out. *)
let run_atpg_resume_parallel_byte_identical () =
  let c = Library.c17 () in
  let full = Harness.run_atpg_cfg Run_config.default c in
  with_temp_file @@ fun path ->
  Sys.remove path;
  let polls = ref 0 in
  let interrupted =
    Harness.run_atpg_cfg ~should_stop:(fun () -> incr polls; !polls > 3) (resuming path) c
  in
  check Alcotest.bool "interrupted" true interrupted.Harness.result.Engine.interrupted;
  let resumed = Harness.run_atpg_cfg (resuming ~jobs:4 path) c in
  check Alcotest.string "byte-identical report under --jobs 4" full.Harness.report
    resumed.Harness.report;
  check Alcotest.string "same report as an all-serial run"
    (Harness.run_atpg_cfg Run_config.(default |> with_jobs 4) c).Harness.report
    full.Harness.report

let run_atpg_refuses_mismatched_resume () =
  let c = Library.c17 () in
  with_temp_file @@ fun path ->
  let polls = ref 0 in
  let _ =
    Harness.run_atpg_cfg
      ~should_stop:(fun () -> incr polls; !polls > 3)
      Run_config.(default |> with_checkpoint (Some path))
      c
  in
  match Harness.run_atpg_cfg Run_config.(resuming path |> with_seed 2) c with
  | exception D.Failed d ->
      check Alcotest.bool "mismatch code" true (d.D.code = D.Checkpoint_mismatch);
      check Alcotest.(option string) "blames the file" (Some path) d.D.loc.D.file
  | _ -> Alcotest.fail "seed drift accepted on resume"

let run_atpg_requires_checkpoint_for_resume () =
  check Alcotest.bool "resume without checkpoint rejected" true
    (try
       ignore (Harness.run_atpg_cfg Run_config.(default |> with_resume true) (Library.c17 ()));
       false
     with D.Failed d -> d.D.code = D.Invalid_flag)

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "experiments"
    [
      ( "reports",
        [
          Alcotest.test_case "table1" `Quick table1_mentions_all_vectors;
          Alcotest.test_case "table4" `Quick table4_row_shape;
          Alcotest.test_case "table5 average" `Quick table5_has_average;
          Alcotest.test_case "table5 counts" `Quick table5_counts_match_runs;
          Alcotest.test_case "table6/7" `Quick table6_table7_ratios;
          Alcotest.test_case "figure1" `Quick figure1_has_markers;
          Alcotest.test_case "ablation A1" `Quick ablation_static_renders;
          Alcotest.test_case "ablation A2" `Quick ablation_u_renders;
          Alcotest.test_case "paper relations" `Quick paper_relations_hold;
        ] );
      ( "harness",
        [
          Alcotest.test_case "rejects unknown" `Quick harness_rejects_unknown;
          Alcotest.test_case "runs table1" `Quick harness_names_cover_run;
        ] );
      ( "evaluation",
        [ Alcotest.test_case "consistency" `Quick evaluation_is_consistent ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick checkpoint_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick checkpoint_rejects_garbage;
          Alcotest.test_case "rejects truncated" `Quick checkpoint_rejects_truncated;
          Alcotest.test_case "matches catches drift" `Quick checkpoint_matches_catches_drift;
          Alcotest.test_case "resume is byte-identical" `Quick run_atpg_resume_byte_identical;
          Alcotest.test_case "parallel resume is byte-identical" `Quick
            run_atpg_resume_parallel_byte_identical;
          Alcotest.test_case "mismatched resume refused" `Quick
            run_atpg_refuses_mismatched_resume;
          Alcotest.test_case "resume needs a checkpoint" `Quick
            run_atpg_requires_checkpoint_for_resume;
        ] );
    ]
