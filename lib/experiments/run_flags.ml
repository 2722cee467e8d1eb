module Diagnostics = Util.Diagnostics

type kind =
  | Flag of (bool -> Run_config.t -> Run_config.t)
  | Int of (int -> Run_config.t -> Run_config.t)
  | Float of (float -> Run_config.t -> Run_config.t)
  | String of (string -> Run_config.t -> Run_config.t)

type spec = { names : string list; docv : string; doc : string; kind : kind }

let with_order_name s cfg =
  match Ordering.of_string s with
  | Some k -> Run_config.with_order k cfg
  | None ->
      Diagnostics.fail Diagnostics.Invalid_flag
        "unknown order %S (expected orig, incr0, decr, 0decr, dynm or 0dynm)" s

let pipeline_specs =
  [
    {
      names = [ "seed" ];
      docv = "SEED";
      doc = "Random seed (drives U selection and random fill).";
      kind = Int Run_config.with_seed;
    };
    {
      names = [ "j"; "jobs" ];
      docv = "JOBS";
      doc =
        "Lanes for detection-set and dictionary simulation. Results are bit-identical for \
         any value.";
      kind = Int Run_config.with_jobs;
    };
    {
      names = [ "pool" ];
      docv = "N";
      doc = "Candidate-vector pool size for U selection.";
      kind = Int Run_config.with_pool;
    };
    {
      names = [ "target-coverage" ];
      docv = "C";
      doc = "U-selection coverage target, in (0, 1].";
      kind = Float Run_config.with_target_coverage;
    };
  ]

let observability_specs =
  [
    {
      names = [ "metrics" ];
      docv = "";
      doc = "Collect counters and phase timings; print the tables at end of run.";
      kind = Flag Run_config.with_metrics;
    };
    {
      names = [ "trace" ];
      docv = "FILE";
      doc =
        "Stream spans, counters and histograms to FILE as JSON lines (schema \
         adi_trace/v1). With --resume the file is appended to, extending the original \
         run's log.";
      kind = String (fun p -> Run_config.with_trace (Some p));
    };
  ]

let engine_specs =
  [
    {
      names = [ "order" ];
      docv = "ORDER";
      doc = "Fault order: orig, incr0, decr, 0decr, dynm, 0dynm.";
      kind = String with_order_name;
    };
    {
      names = [ "backtracks" ];
      docv = "B";
      doc = "PODEM backtrack limit.";
      kind = Int Run_config.with_backtrack_limit;
    };
    {
      names = [ "retries" ];
      docv = "N";
      doc =
        "Escalation passes over backtrack-aborted faults, each with a doubled limit (0 \
         disables).";
      kind = Int Run_config.with_retries;
    };
    {
      names = [ "time-budget" ];
      docv = "SECONDS";
      doc = "Whole-run wall-clock budget; the run stops cleanly at a fault boundary.";
      kind = Float (fun s -> Run_config.with_time_budget (Some s));
    };
    {
      names = [ "fault-budget" ];
      docv = "SECONDS";
      doc = "Per-fault wall-clock budget; overrunning faults are classified out-of-budget.";
      kind = Float (fun s -> Run_config.with_per_fault_budget (Some s));
    };
    {
      names = [ "checkpoint" ];
      docv = "FILE";
      doc =
        "Write a resumable checkpoint here periodically and on interruption (Ctrl-C or \
         an expired time budget).";
      kind = String (fun p -> Run_config.with_checkpoint (Some p));
    };
    {
      names = [ "checkpoint-every" ];
      docv = "N";
      doc = "Checkpoint after every N targeted faults (with --checkpoint).";
      kind = Int Run_config.with_checkpoint_every;
    };
    {
      names = [ "resume" ];
      docv = "";
      doc = "Continue from the --checkpoint file if it exists; fresh run otherwise.";
      kind = Flag Run_config.with_resume;
    };
    {
      names = [ "resume-strict" ];
      docv = "";
      doc =
        "With --resume: fail with E-checkpoint-format on a truncated or corrupt \
         checkpoint instead of warning and starting fresh.";
      kind = Flag Run_config.with_resume_strict;
    };
  ]

let atpg_specs = pipeline_specs @ engine_specs @ observability_specs
let all = atpg_specs

(* Hand-rolled driver for argv-style front ends (the bench driver).
   [--name value] and bare [--flag]; single-letter names also accept
   [-n value].  Unrecognised tokens are returned in order for the
   caller's own parsing (experiment names, driver-local flags). *)
let parse ?(specs = all) ~init args =
  let flag_name tok =
    let n = String.length tok in
    if n > 2 && String.sub tok 0 2 = "--" then Some (String.sub tok 2 (n - 2))
    else if n = 2 && tok.[0] = '-' && tok.[1] <> '-' then Some (String.sub tok 1 1)
    else None
  in
  let cfg = ref init and rest = ref [] in
  let rec go = function
    | [] -> ()
    | tok :: tl -> (
        let spec =
          match flag_name tok with
          | None -> None
          | Some n -> List.find_opt (fun s -> List.mem n s.names) specs
        in
        match spec with
        | None ->
            rest := tok :: !rest;
            go tl
        | Some s -> (
            let value tl =
              match tl with
              | v :: tl' -> (v, tl')
              | [] ->
                  Diagnostics.fail Diagnostics.Invalid_flag "%s expects %s" tok
                    (if s.docv = "" then "a value" else s.docv)
            in
            match s.kind with
            | Flag f ->
                cfg := f true !cfg;
                go tl
            | Int f ->
                let v, tl' = value tl in
                (match int_of_string_opt v with
                | Some i -> cfg := f i !cfg
                | None ->
                    Diagnostics.fail Diagnostics.Invalid_flag "%s expects an integer (got %S)"
                      tok v);
                go tl'
            | Float f ->
                let v, tl' = value tl in
                (match float_of_string_opt v with
                | Some x -> cfg := f x !cfg
                | None ->
                    Diagnostics.fail Diagnostics.Invalid_flag "%s expects a number (got %S)"
                      tok v);
                go tl'
            | String f ->
                let v, tl' = value tl in
                cfg := f v !cfg;
                go tl'))
  in
  go args;
  (!cfg, List.rev !rest)
