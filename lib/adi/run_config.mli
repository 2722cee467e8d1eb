(** One composable configuration record for the whole ADI/ATPG stack.

    Historically each layer grew its own argument pile —
    [Pipeline.prepare ?seed ?pool ?target_coverage ?jobs],
    [Engine.config], the experiment harness's nine optionals, and ad-hoc
    flag parsing in the CLI and bench driver.  A [Run_config.t] carries
    all of it: the CLI, the bench driver, the harness and the examples
    all build one value (via {!default} and the [with_*] builders, or
    the shared [Run_flags] parser) and hand it down.

    Builders validate their argument and raise
    [Util.Diagnostics.Failed] with code [Invalid_flag] on out-of-range
    values, so a bad [--jobs 0] is reported as a typed diagnostic
    before it reaches the simulator. *)

type t = {
  seed : int;  (** drives U selection and random fill *)
  pool : int;  (** candidate vectors for U selection *)
  target_coverage : float;  (** U-selection coverage target, in (0, 1] *)
  jobs : int;  (** lanes of detection-set and dictionary simulation *)
  block_width : unit;
      (** ignored; kept for perfbench/probe.ml until the next
          benchmark PR *)
  faultsim_kernel : unit option;
      (** ignored; kept for perfbench/probe.ml until the next
          benchmark PR *)
  order : Ordering.kind;  (** fault ordering for ATPG runs *)
  backtrack_limit : int;
  retries : int;  (** abort-retry escalation passes *)
  time_budget_s : float option;  (** whole-run wall-clock budget *)
  per_fault_budget_s : float option;
  checkpoint : string option;  (** checkpoint file path *)
  checkpoint_every : int;  (** faults between periodic checkpoints *)
  resume : bool;  (** continue from [checkpoint] if it exists *)
  resume_strict : bool;
      (** refuse to start over an unreadable checkpoint instead of the
          default warn-and-start-fresh *)
  metrics : bool;  (** collect and print end-of-run metrics *)
  trace : string option;  (** JSONL event-log path *)
}

val default : t
(** [seed 1], [pool 10_000], [target_coverage 0.9], [jobs 1], order
    [F0dynm], PODEM with a 256 backtrack limit and one retry pass, no
    budgets, no checkpoint, observability off — the historical defaults
    of every entry point. *)

(** {1 Builders}

    Each returns an updated copy; compose with [|>].
    @raise Util.Diagnostics.Failed (code [Invalid_flag]) on
    out-of-range values. *)

val with_seed : int -> t -> t
val with_pool : int -> t -> t
val with_target_coverage : float -> t -> t

val with_jobs : int -> t -> t
(** Rejects [jobs < 1] before the value can reach the simulator. *)

val with_order : Ordering.kind -> t -> t
val with_backtrack_limit : int -> t -> t
val with_retries : int -> t -> t
val with_time_budget : float option -> t -> t
val with_per_fault_budget : float option -> t -> t
val with_checkpoint : string option -> t -> t
val with_checkpoint_every : int -> t -> t
val with_resume : bool -> t -> t
val with_resume_strict : bool -> t -> t
val with_metrics : bool -> t -> t
val with_trace : string option -> t -> t

val validate : t -> unit
(** Re-check every builder invariant plus cross-field rules
    ([resume] requires [checkpoint]) — called by the [Pipeline] and
    [Harness] entry points so hand-built record literals are covered
    too.  @raise Util.Diagnostics.Failed on the first violation. *)

val observed : t -> bool
(** Is any observability requested ([metrics] or [trace])? *)

val fingerprint : t -> string
(** Canonical rendering of exactly the fields that determine a
    {!Pipeline.prepare} result for a given circuit — [seed], [pool]
    and [target_coverage].  [jobs], the engine knobs
    and the observability flags are deliberately excluded: they never
    change the prepared artifacts.  This is the configuration half of the
    service store's content-addressed cache key, so its format is
    stable: two configurations share a fingerprint iff they prepare
    byte-identical setups. *)

val engine_config : t -> Engine.config
(** The [Engine.config] slice of this configuration. *)
