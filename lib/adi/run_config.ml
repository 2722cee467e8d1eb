type t = {
  seed : int;
  pool : int;
  target_coverage : float;
  jobs : int;
  block_width : unit;
  faultsim_kernel : unit option;
  order : Ordering.kind;
  backtrack_limit : int;
  retries : int;
  time_budget_s : float option;
  per_fault_budget_s : float option;
  checkpoint : string option;
  checkpoint_every : int;
  resume : bool;
  resume_strict : bool;
  metrics : bool;
  trace : string option;
}

let default =
  {
    seed = 1;
    pool = 10_000;
    target_coverage = 0.9;
    jobs = 1;
    block_width = ();
    faultsim_kernel = None;
    order = Ordering.Dynm0;
    backtrack_limit = Engine.default_config.Engine.backtrack_limit;
    retries = Engine.default_config.Engine.retries;
    time_budget_s = None;
    per_fault_budget_s = None;
    checkpoint = None;
    checkpoint_every = 32;
    resume = false;
    resume_strict = false;
    metrics = false;
    trace = None;
  }

let bad fmt = Util.Diagnostics.fail Util.Diagnostics.Invalid_flag fmt

let with_seed seed t = { t with seed }

let with_pool pool t =
  if pool < 1 then bad "--pool must be at least 1 (got %d)" pool;
  { t with pool }

let with_target_coverage target_coverage t =
  if not (target_coverage > 0.0 && target_coverage <= 1.0) then
    bad "--target-coverage must be in (0, 1] (got %g)" target_coverage;
  { t with target_coverage }

let with_jobs jobs t =
  if jobs < 1 then bad "--jobs must be at least 1 (got %d)" jobs;
  { t with jobs }

let with_order order t = { t with order }

let with_backtrack_limit backtrack_limit t =
  if backtrack_limit < 0 then bad "--backtracks must be non-negative (got %d)" backtrack_limit;
  { t with backtrack_limit }

let with_retries retries t =
  if retries < 0 then bad "--retries must be non-negative (got %d)" retries;
  { t with retries }

let with_time_budget s t =
  (match s with
  | Some s when s < 0.0 -> bad "--time-budget must be non-negative (got %g)" s
  | _ -> ());
  { t with time_budget_s = s }

let with_per_fault_budget s t =
  (match s with
  | Some s when s < 0.0 -> bad "--fault-budget must be non-negative (got %g)" s
  | _ -> ());
  { t with per_fault_budget_s = s }

let with_checkpoint checkpoint t = { t with checkpoint }

let with_checkpoint_every checkpoint_every t =
  if checkpoint_every < 1 then
    bad "--checkpoint-every must be at least 1 (got %d)" checkpoint_every;
  { t with checkpoint_every }

let with_resume resume t = { t with resume }
let with_resume_strict resume_strict t = { t with resume_strict }
let with_metrics metrics t = { t with metrics }
let with_trace trace t = { t with trace }

(* Re-check every invariant in one place: configurations built as
   record literals (rather than through the builders) are validated at
   the [Pipeline]/[Harness] entry points. *)
let validate t =
  ignore
    (default |> with_seed t.seed |> with_pool t.pool
    |> with_target_coverage t.target_coverage
    |> with_jobs t.jobs
    |> with_backtrack_limit t.backtrack_limit |> with_retries t.retries
    |> with_time_budget t.time_budget_s
    |> with_per_fault_budget t.per_fault_budget_s
    |> with_checkpoint_every t.checkpoint_every);
  if t.resume && t.checkpoint = None then
    bad "--resume requires --checkpoint FILE";
  if t.resume_strict && not t.resume then
    bad "--resume-strict requires --resume"

let observed t = t.metrics || t.trace <> None

(* Only the preparation-relevant fields, by name, in a fixed order —
   adding a knob that does not change prepared artifacts must not
   invalidate every warm cache entry, so nothing else may leak in.
   %.17g round-trips the float exactly. *)
let fingerprint t =
  Printf.sprintf "seed=%d;pool=%d;target_coverage=%.17g" t.seed t.pool t.target_coverage

let engine_config t =
  {
    Engine.backtrack_limit = t.backtrack_limit;
    seed = t.seed;
    retries = t.retries;
    time_budget_s = t.time_budget_s;
    per_fault_budget_s = t.per_fault_budget_s;
  }
