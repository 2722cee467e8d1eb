let eval_cache : (int * bool, Evaluation.circuit_eval list) Hashtbl.t = Hashtbl.create 4
let setup_cache : (int * bool, Evaluation.circuit_eval list) Hashtbl.t = Hashtbl.create 4

let suite_entries ~full = if full then Suite.entries else Suite.small

let evaluations ?(seed = 1) ~full () =
  match Hashtbl.find_opt eval_cache (seed, full) with
  | Some evs -> evs
  | None ->
      let evs =
        List.map
          (fun (e : Suite.entry) ->
            let orders =
              if e.Suite.big then [ Ordering.Orig; Ordering.Dynm; Ordering.Dynm0 ]
              else Evaluation.default_orders
            in
            Evaluation.evaluate ~orders ~seed ~paper_name:e.Suite.paper_name (Suite.build e))
          (suite_entries ~full)
      in
      Hashtbl.replace eval_cache (seed, full) evs;
      evs

let table4_evaluations ?(seed = 1) ~full () =
  match (Hashtbl.find_opt eval_cache (seed, full), Hashtbl.find_opt setup_cache (seed, full)) with
  | Some evs, _ -> evs
  | None, Some evs -> evs
  | None, None ->
      let evs =
        List.map
          (fun (e : Suite.entry) ->
            Evaluation.evaluate ~orders:[] ~seed ~paper_name:e.Suite.paper_name (Suite.build e))
          (suite_entries ~full)
      in
      Hashtbl.replace setup_cache (seed, full) evs;
      evs

let figure1_eval ?(seed = 1) () =
  let evs = evaluations ~seed ~full:false () in
  List.find (fun (ev : Evaluation.circuit_eval) -> ev.Evaluation.name = "syn420") evs

let ablation_evals ?(seed = 1) () =
  let orders = [ Ordering.Decr; Ordering.Decr0; Ordering.Dynm; Ordering.Dynm0 ] in
  List.filteri (fun i _ -> i < 6) Suite.small
  |> List.map (fun (e : Suite.entry) ->
         Evaluation.evaluate ~orders ~seed ~paper_name:e.Suite.paper_name (Suite.build e))

(* --- resilient single-circuit ATPG ------------------------------- *)

type atpg_run = {
  setup : Pipeline.setup;
  kind : Ordering.kind;
  result : Engine.result;
  report : string;
  checkpoint_saved : string option;
  metrics_report : string option;
}

(* Observability scope: install a tracer per the configuration, run the
   callback under it, and return its end-of-run metrics table when
   [metrics] was requested.  A resumed run appends to the trace file —
   the events before the interruption are part of the same logical
   run. *)
let with_observability (cfg : Run_config.t) f =
  if not (Run_config.observed cfg) then (f (), None)
  else begin
    let oc =
      Option.map
        (fun path ->
          let flags =
            if cfg.Run_config.resume then [ Open_append; Open_creat; Open_wronly ]
            else [ Open_trunc; Open_creat; Open_wronly ]
          in
          open_out_gen flags 0o644 path)
        cfg.Run_config.trace
    in
    let sink = Option.map Util.Trace.file_sink oc in
    let tr = Util.Trace.make ?sink () in
    Fun.protect
      ~finally:(fun () -> Option.iter close_out oc)
      (fun () ->
        Util.Trace.with_current tr (fun () ->
            (* Trace header: who produced this event log. *)
            Util.Trace.instant tr "run.start"
              ~attrs:[ ("version", Util.Trace.Str Util.Version.version) ];
            let v = f () in
            Util.Trace.flush_metrics tr;
            let report =
              if cfg.Run_config.metrics then
                Some (Util.Metrics.report (Util.Trace.metrics tr))
              else None
            in
            (v, report)))
  end

(* Deliberately free of wall-clock fields: an interrupted run resumed
   from its checkpoint must render byte-identically to the
   uninterrupted run. *)
let atpg_report ~kind ~faults (e : Engine.result) =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "order       : F%s\n" (Ordering.to_string kind);
  pf "tests       : %d\n" (Patterns.count e.Engine.tests);
  pf "coverage    : %.3f\n" (Engine.coverage faults e);
  pf "untestable  : %d proven, %d aborted, %d out-of-budget\n"
    (List.length e.Engine.untestable)
    (List.length e.Engine.aborted)
    (List.length e.Engine.out_of_budget);
  if e.Engine.retry_recovered > 0 then
    pf "recovered   : %d aborted fault(s) resolved by retry\n" e.Engine.retry_recovered;
  if e.Engine.interrupted then begin
    let total = Fault_list.count faults in
    let detected =
      Array.fold_left (fun acc t -> if t >= 0 then acc + 1 else acc) 0 e.Engine.detected_by
    in
    let pending =
      total - detected
      - List.length e.Engine.untestable
      - List.length e.Engine.out_of_budget
    in
    pf "status      : INTERRUPTED (%d of %d faults pending)\n" pending total
  end
  else
    pf "AVE         : %.2f tests to detection\n"
      (Coverage.ave (Coverage.of_engine_result faults e));
  Buffer.contents b

let run_atpg_cfg ?should_stop (cfg : Run_config.t) circuit =
  Run_config.validate cfg;
  let econfig = Run_config.engine_config cfg in
  let { Run_config.seed; order; checkpoint; checkpoint_every; resume; _ } = cfg in
  let (setup, result, checkpoint_saved), metrics_report =
    with_observability cfg @@ fun () ->
    let tr = Util.Trace.current () in
    let setup = Pipeline.prepare cfg circuit in
    let order_kind = Ordering.to_string order in
    let order_arr =
      Util.Trace.span tr
        ~attrs:[ ("order", Util.Trace.Str order_kind) ]
        "pipeline.order"
        (fun () -> Ordering.order order setup.Pipeline.adi)
    in
    let resume_snap =
      match (resume, checkpoint) with
      | false, _ | true, None -> None
      | true, Some path when not (Sys.file_exists path) -> None
      | true, Some path -> (
          (* An unreadable checkpoint defaults to warn-and-start-fresh:
             for long unattended runs a stale .tmp or torn file should
             cost the lost progress, not the whole run.  A checkpoint
             that reads fine but belongs to a different run is a hard
             error either way — silently recomputing a different
             experiment would be worse than stopping. *)
          match Checkpoint.load path with
          | exception Util.Diagnostics.Failed d
            when d.Util.Diagnostics.code = Util.Diagnostics.Checkpoint_format
                 && not cfg.Run_config.resume_strict ->
              Printf.eprintf "%s\n%!"
                (Util.Diagnostics.to_string
                   (Util.Diagnostics.warning
                      ~loc:{ file = Some path; line = 0 }
                      Util.Diagnostics.Checkpoint_format
                      "ignoring unreadable checkpoint (%s); starting fresh"
                      d.Util.Diagnostics.message));
              Util.Trace.instant tr "checkpoint.ignored_corrupt";
              None
          | ck -> (
              match
                Checkpoint.matches ck ~circuit:setup.Pipeline.circuit ~seed ~order_kind
                  ~backtrack_limit:econfig.Engine.backtrack_limit
                  ~retries:econfig.Engine.retries ~order:order_arr
              with
              | Ok () -> Some ck.Checkpoint.snapshot
              | Error reason ->
                  Util.Diagnostics.fail
                    ~loc:{ file = Some path; line = 0 }
                    Util.Diagnostics.Checkpoint_mismatch "%s" reason))
    in
    let mk_checkpoint snapshot =
      {
        Checkpoint.circuit_title = Circuit.title setup.Pipeline.circuit;
        circuit_digest = Checkpoint.digest_of_circuit setup.Pipeline.circuit;
        seed;
        order_kind;
        backtrack_limit = econfig.Engine.backtrack_limit;
        retries = econfig.Engine.retries;
        order = order_arr;
        snapshot;
      }
    in
    let on_checkpoint =
      Option.map (fun path snap -> Checkpoint.save path (mk_checkpoint snap)) checkpoint
    in
    let checkpoint_every =
      if Option.is_none checkpoint then None else Some checkpoint_every
    in
    let result =
      Util.Trace.span tr
        ~attrs:
          [
            ("order", Util.Trace.Str order_kind);
            ("resumed", Util.Trace.Bool (resume_snap <> None));
          ]
        "pipeline.engine"
        (fun () ->
          Engine.run ~config:econfig ?resume:resume_snap ?checkpoint_every ?on_checkpoint
            ?should_stop setup.Pipeline.faults ~order:order_arr)
    in
    let checkpoint_saved =
      match (result.Engine.interrupted, result.Engine.snapshot, checkpoint) with
      | true, Some snap, Some path ->
          Checkpoint.save path (mk_checkpoint snap);
          Some path
      | _ ->
          (* A completed run invalidates any earlier checkpoint: resuming
             a finished run from a stale snapshot would re-report partial
             results as if they were current. *)
          (match checkpoint with
          | Some path when (not result.Engine.interrupted) && Sys.file_exists path ->
              Sys.remove path
          | _ -> ());
          None
    in
    (setup, result, checkpoint_saved)
  in
  let report = atpg_report ~kind:order ~faults:setup.Pipeline.faults result in
  { setup; kind = order; result; report; checkpoint_saved; metrics_report }

let experiment_names =
  [
    "table1"; "table4"; "table5"; "table6"; "table7"; "figure1"; "ablation-static";
    "ablation-u"; "ablation-ndetection"; "ablation-estimator"; "ablation-reorder";
    "ablation-independence"; "ablation-engines"; "ablation-compaction";
    "ablation-truncation"; "all";
  ]

let rec run_experiment ?(seed = 1) ~full which =
  match which with
  | "table1" -> Reports.table1 ()
  | "table4" -> Reports.table4 (table4_evaluations ~seed ~full ())
  | "table5" -> Reports.table5 (evaluations ~seed ~full ())
  | "table6" -> Reports.table6 (evaluations ~seed ~full ())
  | "table7" -> Reports.table7 (evaluations ~seed ~full ())
  | "figure1" -> Reports.figure1 (figure1_eval ~seed ())
  | "ablation-static" -> Reports.ablation_static (ablation_evals ~seed ())
  | "ablation-u" -> Reports.ablation_u (Suite.build_by_name "syn420") ~seed
  | "ablation-ndetection" -> Reports.ablation_ndetection (Suite.build_by_name "syn420") ~seed
  | "ablation-estimator" -> Reports.ablation_estimator (Suite.build_by_name "syn420") ~seed
  | "ablation-reorder" ->
      let evs = evaluations ~seed ~full:false () in
      Reports.ablation_reorder (List.filteri (fun i _ -> i < 6) evs)
  | "ablation-independence" ->
      let evs = evaluations ~seed ~full:false () in
      Reports.ablation_independence (List.filteri (fun i _ -> i < 6) evs)
  | "ablation-truncation" ->
      let evs = evaluations ~seed ~full:false () in
      Reports.ablation_truncation (List.filteri (fun i _ -> i < 4) evs)
  | "ablation-compaction" ->
      let evs = evaluations ~seed ~full:false () in
      Reports.ablation_compaction (List.filteri (fun i _ -> i < 6) evs)
  | "ablation-engines" ->
      Reports.ablation_engines
        [ Suite.build_by_name "c17"; Suite.build_by_name "lion";
          Suite.build_by_name "syn208"; Suite.build_by_name "syn298";
          Suite.build_by_name "syn344" ]
  | "all" ->
      String.concat "\n"
        (List.filter_map
           (fun w -> if w = "all" then None else Some (run_experiment ~seed ~full w))
           experiment_names)
  | _ ->
      invalid_arg
        (Printf.sprintf "Harness.run_experiment: unknown experiment %S (expected one of %s)"
           which
           (String.concat ", " experiment_names))
