(* Tests for the observability layer (Util.Metrics / Util.Trace) and
   the Run_config redesign: counter/histogram/span semantics under an
   injectable clock, JSONL schema round-trips, the
   instrumentation-is-purely-observational invariant (identical engine
   results with metrics on/off and for any jobs count), and the
   Run_config defaults and validation. *)

module Metrics = Util.Metrics
module Trace = Util.Trace
module D = Util.Diagnostics

let check = Alcotest.check

(* ---------- counters and histograms ------------------------------- *)

let counter_semantics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "engine.tests" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "incr + add" 5 (Metrics.count c);
  Metrics.set c 3;
  check Alcotest.int "set overwrites" 3 (Metrics.count c);
  let c' = Metrics.counter m "engine.tests" in
  Metrics.incr c';
  check Alcotest.int "find-or-create shares the handle" 4 (Metrics.count c);
  check Alcotest.int "one registration" 1 (List.length (Metrics.counters m))

let histogram_semantics () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "gen_s" in
  List.iter (Metrics.observe h) [ 2.0; 6.0; 1.0 ];
  check Alcotest.int "observations" 3 (Metrics.observations h);
  check (Alcotest.float 1e-9) "total" 9.0 (Metrics.total h);
  check (Alcotest.float 1e-9) "mean" 3.0 (Metrics.mean h);
  check (Alcotest.float 1e-9) "min" 1.0 (Metrics.minimum h);
  check (Alcotest.float 1e-9) "max" 6.0 (Metrics.maximum h);
  Metrics.reset m;
  check Alcotest.int "reset zeroes" 0 (Metrics.observations h)

let null_registry_inert () =
  check Alcotest.bool "null not live" false (Metrics.live Metrics.null);
  (* Null handles are shared dead-stores: updates are absorbed without
     registering anything, so nothing is ever rendered. *)
  let c = Metrics.counter Metrics.null "anything" in
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.observe (Metrics.histogram Metrics.null "h") 1.0;
  check Alcotest.int "no counters registered" 0
    (List.length (Metrics.counters Metrics.null));
  check Alcotest.int "no histograms registered" 0
    (List.length (Metrics.histograms Metrics.null))

(* ---------- spans under an injectable clock ----------------------- *)

let fake_tracer () =
  let now = ref 0.0 in
  let events = ref [] in
  let tr = Trace.make ~clock:(fun () -> !now) ~sink:(fun e -> events := e :: !events) () in
  (now, (fun () -> List.rev !events), tr)

let span_timing () =
  let now, events, tr = fake_tracer () in
  now := 1.0;
  Trace.span tr "outer" (fun () ->
      now := 2.0;
      Trace.span tr "inner" (fun () -> now := 3.5);
      now := 4.0);
  (match events () with
  | [ Trace.Span i; Trace.Span o ] ->
      (* Children close (and are emitted) before their parents. *)
      check Alcotest.string "inner first" "inner" i.name;
      check (Alcotest.float 1e-9) "inner start" 2.0 i.at_s;
      check (Alcotest.float 1e-9) "inner duration" 1.5 i.dur_s;
      check Alcotest.int "inner depth" 1 i.depth;
      check Alcotest.string "outer second" "outer" o.name;
      check (Alcotest.float 1e-9) "outer start" 1.0 o.at_s;
      check (Alcotest.float 1e-9) "outer duration" 3.0 o.dur_s;
      check Alcotest.int "outer depth" 0 o.depth
  | evs -> Alcotest.failf "expected two spans, got %d events" (List.length evs));
  let h = Metrics.histogram (Trace.metrics tr) (Metrics.span_prefix ^ "outer") in
  check (Alcotest.float 1e-9) "span folded into phase histogram" 3.0 (Metrics.total h)

let span_emitted_on_raise () =
  let now, events, tr = fake_tracer () in
  (try
     Trace.span tr "doomed" (fun () ->
         now := 2.5;
         failwith "boom")
   with Failure _ -> ());
  match events () with
  | [ Trace.Span s ] ->
      check Alcotest.string "name" "doomed" s.name;
      check (Alcotest.float 1e-9) "duration up to the raise" 2.5 s.dur_s
  | _ -> Alcotest.fail "span event lost on raise"

let time_and_now () =
  let now, _events, tr = fake_tracer () in
  let h = Trace.histogram tr "block_s" in
  now := 1.0;
  Trace.time tr h (fun () -> now := 1.25);
  Trace.time tr h (fun () -> now := 2.0);
  check Alcotest.int "two samples, no span events" 2 (Metrics.observations h);
  check (Alcotest.float 1e-9) "summed durations" 1.0 (Metrics.total h);
  check (Alcotest.float 1e-9) "now_s reads the clock" 2.0 (Trace.now_s tr);
  check (Alcotest.float 1e-9) "null now_s is 0" 0.0 (Trace.now_s Trace.null);
  check Alcotest.int "null span runs the body" 7 (Trace.span Trace.null "x" (fun () -> 7))

let flush_emits_registry () =
  let _now, events, tr = fake_tracer () in
  Metrics.add (Trace.counter tr "podem.decisions") 42;
  Metrics.observe (Trace.histogram tr "gen_s") 0.5;
  Trace.flush_metrics tr;
  let counters, hists =
    List.partition (function Trace.Counter _ -> true | _ -> false) (events ())
  in
  (match counters with
  | [ Trace.Counter c ] ->
      check Alcotest.string "counter name" "podem.decisions" c.name;
      check Alcotest.int "counter value" 42 c.value
  | _ -> Alcotest.fail "expected one counter event");
  match hists with
  | [ Trace.Hist h ] ->
      check Alcotest.string "hist name" "gen_s" h.name;
      check Alcotest.int "hist count" 1 h.n;
      check (Alcotest.float 1e-9) "hist sum" 0.5 h.sum
  | _ -> Alcotest.fail "expected one hist event"

(* ---------- JSONL schema ------------------------------------------ *)

let event : Trace.event Alcotest.testable =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (Trace.to_json e)) ( = )

let roundtrip e =
  match Trace.of_json (Trace.to_json e) with
  | Ok e' -> check event "round-trip" e e'
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let jsonl_roundtrip () =
  let attrs =
    [
      ("faults", Trace.Int 1662);
      ("ratio", Trace.Float (-0.035625));
      ("circuit", Trace.Str "weird \"name\"\nwith\\escapes");
      ("pooled", Trace.Bool true);
    ]
  in
  roundtrip (Trace.Span { name = "engine.pass"; at_s = 0.125; dur_s = 1e-9; depth = 2; attrs });
  roundtrip (Trace.Instant { name = "engine.budget_expired"; at_s = 3.5; attrs = [] });
  roundtrip (Trace.Counter { name = "engine.tests"; value = 0; attrs });
  roundtrip
    (Trace.Hist
       { name = "gen_s"; n = 3; sum = 0.75; min_v = 0.1; max_v = 0.5; attrs = [] })

let jsonl_lines_carry_schema () =
  let line = Trace.to_json (Trace.Instant { name = "x"; at_s = 0.0; attrs = [] }) in
  check Alcotest.bool "single line" false (String.contains line '\n');
  let has_schema =
    let pat = Printf.sprintf "\"schema\":\"%s\"" Trace.schema in
    let n = String.length line and m = String.length pat in
    let rec scan i = i + m <= n && (String.sub line i m = pat || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "schema field present" true has_schema

let jsonl_rejects_garbage () =
  (match Trace.of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Trace.of_json "{\"schema\":\"other/v9\",\"ev\":\"instant\",\"name\":\"x\",\"at_s\":0}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* ---------- instrumentation is purely observational --------------- *)

let same_result (a : Engine.result) (b : Engine.result) =
  Patterns.to_strings a.Engine.tests = Patterns.to_strings b.Engine.tests
  && a.Engine.detected_by = b.Engine.detected_by
  && a.Engine.targeted = b.Engine.targeted
  && a.Engine.untestable = b.Engine.untestable
  && a.Engine.aborted = b.Engine.aborted
  && a.Engine.out_of_budget = b.Engine.out_of_budget
  && a.Engine.retry_recovered = b.Engine.retry_recovered
  && a.Engine.interrupted = b.Engine.interrupted
  && a.Engine.stats = b.Engine.stats

let observability_does_not_change_results () =
  let c = Library.c17 () in
  let base = Harness.run_atpg_cfg Run_config.default c in
  let trace_file = Filename.temp_file "adi_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove trace_file) @@ fun () ->
  let observed =
    Harness.run_atpg_cfg
      Run_config.(default |> with_metrics true |> with_trace (Some trace_file))
      c
  in
  check Alcotest.bool "metrics+trace leave the result untouched" true
    (same_result base.Harness.result observed.Harness.result);
  check Alcotest.string "same report" base.Harness.report observed.Harness.report;
  check Alcotest.bool "plain run carries no metrics report" true
    (base.Harness.metrics_report = None);
  check Alcotest.bool "observed run carries one" true
    (observed.Harness.metrics_report <> None);
  (* Every emitted line parses back under the stable schema. *)
  let ic = open_in trace_file in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Trace.of_json line with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "unparseable trace line: %s (%s)" line msg
     done
   with End_of_file -> ());
  check Alcotest.bool "trace has events" true (!lines > 0)

let jobs_parity_with_metrics () =
  let c = Library.c17 () in
  let serial =
    Harness.run_atpg_cfg Run_config.(default |> with_metrics true) c
  in
  let pooled =
    Harness.run_atpg_cfg Run_config.(default |> with_jobs 4 |> with_metrics true) c
  in
  check Alcotest.bool "jobs=1 and jobs=4 agree under metrics" true
    (same_result serial.Harness.result pooled.Harness.result)

(* ---------- Run_config ------------------------------------------- *)

let run_config_defaults () =
  let e = Run_config.engine_config Run_config.default in
  check Alcotest.int "backtracks" Engine.default_config.Engine.backtrack_limit
    e.Engine.backtrack_limit;
  check Alcotest.int "retries" Engine.default_config.Engine.retries e.Engine.retries;
  check Alcotest.int "seed follows the pipeline seed" 1 e.Engine.seed;
  check Alcotest.bool "no budgets" true
    (e.Engine.time_budget_s = None && e.Engine.per_fault_budget_s = None);
  check Alcotest.bool "observability off by default" false
    (Run_config.observed Run_config.default)

let invalid_flag code f =
  match f () with
  | exception D.Failed d -> check Alcotest.bool code true (d.D.code = D.Invalid_flag)
  | _ -> Alcotest.failf "%s accepted" code

let builder_validation () =
  invalid_flag "jobs 0" (fun () -> Run_config.with_jobs 0 Run_config.default);
  invalid_flag "pool 0" (fun () -> Run_config.with_pool 0 Run_config.default);
  invalid_flag "coverage 1.5" (fun () ->
      Run_config.with_target_coverage 1.5 Run_config.default);
  invalid_flag "backtracks -1" (fun () ->
      Run_config.with_backtrack_limit (-1) Run_config.default);
  invalid_flag "resume without checkpoint" (fun () ->
      Run_config.validate { Run_config.default with Run_config.resume = true })

let shared_flag_parser () =
  let cfg, rest =
    Run_flags.parse ~init:Run_config.default
      [ "--seed"; "7"; "-j"; "2"; "table5"; "--metrics"; "--trace"; "t.jsonl"; "--full" ]
  in
  check Alcotest.int "seed" 7 cfg.Run_config.seed;
  check Alcotest.int "jobs via -j" 2 cfg.Run_config.jobs;
  check Alcotest.bool "metrics" true cfg.Run_config.metrics;
  check Alcotest.bool "trace" true (cfg.Run_config.trace = Some "t.jsonl");
  check (Alcotest.list Alcotest.string) "leftovers in order" [ "table5"; "--full" ] rest;
  invalid_flag "jobs 0 via parser" (fun () ->
      Run_flags.parse ~init:Run_config.default [ "--jobs"; "0" ]);
  invalid_flag "non-integer seed" (fun () ->
      Run_flags.parse ~init:Run_config.default [ "--seed"; "lots" ]);
  invalid_flag "missing value" (fun () ->
      Run_flags.parse ~init:Run_config.default [ "--trace" ])

let trace_file_append_on_resume () =
  let path = Filename.temp_file "adi_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let count () =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    !n
  in
  let cfg = Run_config.(default |> with_trace (Some path)) in
  let emit cfg =
    ignore
      (Harness.with_observability cfg (fun () ->
           Trace.instant (Trace.current ()) "test.marker"))
  in
  emit cfg;
  let fresh = count () in
  check Alcotest.bool "fresh run wrote the file" true (fresh > 0);
  emit cfg;
  check Alcotest.int "a fresh run truncates" fresh (count ());
  emit { cfg with Run_config.resume = true };
  check Alcotest.int "a resumed run appends" (2 * fresh) (count ())

let () =
  Trace.install_from_env ();
  Alcotest.run "observability"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick counter_semantics;
          Alcotest.test_case "histogram semantics" `Quick histogram_semantics;
          Alcotest.test_case "null registry" `Quick null_registry_inert;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span timing" `Quick span_timing;
          Alcotest.test_case "span on raise" `Quick span_emitted_on_raise;
          Alcotest.test_case "time/now" `Quick time_and_now;
          Alcotest.test_case "flush metrics" `Quick flush_emits_registry;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick jsonl_roundtrip;
          Alcotest.test_case "schema field" `Quick jsonl_lines_carry_schema;
          Alcotest.test_case "rejects garbage" `Quick jsonl_rejects_garbage;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "observation-free results" `Quick
            observability_does_not_change_results;
          Alcotest.test_case "jobs parity" `Quick jobs_parity_with_metrics;
        ] );
      ( "run_config",
        [
          Alcotest.test_case "defaults" `Quick run_config_defaults;
          Alcotest.test_case "builder validation" `Quick builder_validation;
          Alcotest.test_case "shared parser" `Quick shared_flag_parser;
          Alcotest.test_case "trace append on resume" `Quick trace_file_append_on_resume;
        ] );
    ]
