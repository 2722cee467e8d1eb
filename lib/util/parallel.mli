(** One fork-join over fresh domains.

    {!run} spawns its domains with [Domain.spawn] and joins them with
    [Domain.join] before returning; nothing outlives the call.  Callers
    hand it one task per lane of a static partition, so any computation
    whose tasks write disjoint state is bit-identical to its serial
    execution however the domains interleave.  The lane count shapes
    the partition; the number of domains never exceeds the cores. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the lane count the CLI's
    [--jobs] flag defaults to. *)

val run : (unit -> unit) array -> unit
(** [run tasks] executes every task exactly once and returns when all
    have finished.  The tasks are split into [g = min n cores]
    contiguous groups; the caller runs group 0 and [g - 1] spawned
    domains run the rest, so a one-task run (or any run on one core)
    executes on the calling domain and spawns nothing.  If tasks raise,
    the exception of the lowest-indexed raising task is re-raised after
    every task has run. *)
