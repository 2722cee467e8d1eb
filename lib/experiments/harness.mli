(** Experiment orchestration.

    Evaluates each suite circuit once per process, shares the
    per-circuit evaluations between tables 5/6/7 and figure 1, and
    renders the requested artefact.  [adi-atpg experiment NAME [--full]] is its
    front end.  The paper tables run one lane: evaluations prepare
    with [jobs = 1] whatever [ADI_JOBS] or the machine's core count
    says, and the command takes no [--jobs].  Lanes never change a
    result, only the wall time. *)

val evaluations : ?seed:int -> full:bool -> unit -> Evaluation.circuit_eval list
(** One evaluation per suite circuit ([full] adds syn5378/syn13207,
    for which the deliberately bad [Fincr0] order is skipped, as in the
    paper).  Memoised per (seed, full). *)

val table4_evaluations : ?seed:int -> full:bool -> unit -> Evaluation.circuit_eval list
(** Setup-only evaluations (no ATPG runs) — enough for Table 4 and
    much faster when only that table is wanted. *)

val run_experiment : ?seed:int -> full:bool -> string -> string
(** [run_experiment name] renders one artefact named in
    {!experiment_names} (["all"] renders every one).
    @raise Invalid_argument on an unknown name. *)

val experiment_names : string list

(** {2 Resilient single-circuit ATPG}

    The checkpoint/resume front door used by [adi-atpg atpg]. *)

type atpg_run = {
  setup : Pipeline.setup;
  kind : Ordering.kind;
  result : Engine.result;
  report : string;
      (** Deterministic summary (no wall-clock fields): a run resumed
          from a checkpoint renders byte-identically to the same run
          executed without interruption. *)
  checkpoint_saved : string option;
      (** Path of the checkpoint written because the run was
          interrupted, if any. *)
  metrics_report : string option;
      (** End-of-run metrics tables, when the configuration requested
          [metrics]. *)
}

val with_observability : Run_config.t -> (unit -> 'a) -> 'a * string option
(** Run the callback under a tracer built per the configuration: a
    JSONL sink on [trace] (append mode when [resume] is set, so a
    resumed run extends its original event log), metrics collection
    when requested.  Returns the callback's value and the rendered
    metrics tables (when [metrics] is set).  With observability off the
    callback runs under whatever tracer is already current. *)

val run_atpg_cfg :
  ?should_stop:(unit -> bool) -> Run_config.t -> Circuit.t -> atpg_run
(** Prepare the pipeline, order the faults, and run the engine with
    checkpoint/resume plumbing and observability, all driven by one
    {!Run_config.t}:

    - [checkpoint] names a checkpoint file.  While running, a snapshot
      is saved there every [checkpoint_every] (default 32) processed
      faults; if the run is interrupted (time budget or
      [should_stop]), a final snapshot is saved at the stopping point.
      When the run completes, the file is removed.
    - [resume] (with [checkpoint]) loads the file if it exists and
      continues from it; a missing file starts a fresh run.  The
      checkpoint's identity block (circuit digest, seed, order,
      limits) must match the current invocation.
    - [jobs] (default 1) is the lane count of the ADI setup's
      detection-set simulation; the engine itself is single-threaded.  Results
      are identical for any value, so it is deliberately absent from
      the checkpoint identity: a run checkpointed under one [jobs] may
      resume under another.

    @raise Util.Diagnostics.Failed with code [Checkpoint_mismatch]
    when resuming under parameters that differ from those recorded in
    the checkpoint, [Checkpoint_format] on a corrupt file, or
    [Invalid_flag] when the configuration is invalid (e.g. [resume]
    without [checkpoint]). *)
