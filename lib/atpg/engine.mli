(** The test-generation engine: one loop that targets faults in a
    given order, with fault dropping and random fill — the procedure of
    the paper's Section 4.

    For each not-yet-detected fault, in order: run PODEM; fill the
    returned cube's don't-cares randomly; fault-simulate the resulting
    vector against all live faults and drop everything it detects.
    Faults proven untestable, aborted, or out of budget are recorded
    and skipped.  {!run} is that loop; {!run_compacting} is the same
    loop with one extra step between search and fill (dynamic
    compaction, the paper's baseline).

    The loop is single-threaded, with one fault-simulation workspace:
    a test's drop scan is one pattern wide, so splitting it would mean
    slicing the fault list, and that lost to the plain loop on every
    measured core count.

    {2 Resilience}

    Long runs degrade gracefully instead of dying:

    - {e Abort-retry escalation}: faults that hit the backtrack limit
      are queued and retried in up to [retries] further passes, each
      with a doubled limit — standard production-ATPG practice that
      typically recovers coverage for free.
    - {e Time budgets}: a whole-run wall-clock budget and an optional
      per-fault slice.  A fault whose slice expires is classified
      [out_of_budget] (distinct from backtrack-[aborted]); when the
      whole-run budget expires the engine stops at a fault boundary
      and reports [interrupted].
    - {e Checkpoint/resume}: a {!snapshot} captures everything needed
      to continue deterministically (pass structure, partial
      classifications, tests, RNG state, search statistics).  A run
      resumed from a snapshot produces exactly the result the
      uninterrupted run would have. *)

type config = {
  backtrack_limit : int;  (** first-pass search backtrack cap (default 256) *)
  seed : int;  (** random-fill seed (default 0xAD1) *)
  retries : int;
      (** escalation passes over aborted faults, each doubling the
          backtrack limit (default 1; 0 disables escalation) *)
  time_budget_s : float option;
      (** whole-run wall-clock budget (default [None] = unlimited) *)
  per_fault_budget_s : float option;
      (** per-fault wall-clock slice (default [None] = unlimited) *)
}

val default_config : config

type snapshot = {
  snap_pass : int;  (** current escalation pass (0-based) *)
  snap_schedule : int array;  (** fault indices of the current pass *)
  snap_pos : int;  (** next unprocessed index into [snap_schedule] *)
  snap_limit : int;  (** backtrack limit of the current pass *)
  snap_retry_rev : int list;  (** aborts accumulated this pass (reversed) *)
  snap_ever_retried : bool array;
  snap_detected_by : int array;
  snap_tests_rev : bool array list;  (** generated vectors (reversed) *)
  snap_targeted_rev : int list;
  snap_untestable_rev : int list;
  snap_out_of_budget_rev : int list;
  snap_n_tests : int;
  snap_rng_state : int64;  (** random-fill generator state *)
  snap_decisions : int;
  snap_backtracks : int;
  snap_implications : int;
}
(** A self-contained, serialisable (plain-data) capture of an
    in-flight {!run} at a fault boundary. *)

type result = {
  tests : Patterns.t;  (** generated vectors, in generation order *)
  detected_by : int array;
      (** per fault index: the test (position in [tests]) that first
          detected it, or -1 *)
  targeted : int array;
      (** per test: the fault index the test was generated for *)
  untestable : int list;  (** proven redundant faults *)
  aborted : int list;  (** backtrack-limit hits remaining after all retry passes *)
  out_of_budget : int list;  (** per-fault time-budget hits *)
  retry_recovered : int;
      (** faults that aborted in an earlier pass but were resolved
          (tested, dropped, or proven untestable) by escalation *)
  interrupted : bool;
      (** true when the run stopped early (whole-run budget or
          [should_stop]); remaining faults are unclassified *)
  snapshot : snapshot option;  (** resume point, present iff [interrupted] *)
  stats : Podem.stats;  (** accumulated search statistics *)
  runtime_s : float;  (** wall-clock generation time *)
  spec_dispatched : int;
  spec_committed : int;
      (** always 0: the engine is serial; both fields stay because
          the benchmark probe reads them *)
}

val run :
  ?config:config ->
  ?resume:snapshot ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(snapshot -> unit) ->
  ?should_stop:(unit -> bool) ->
  Fault_list.t ->
  order:int array ->
  result
(** [run fl ~order] generates a test set.  [order] is a permutation of
    fault indices (see {!Ordering}); the engine considers faults in
    exactly this order.

    [resume] continues a previous run from its snapshot (the caller
    must supply the same fault list, order, and config seed for the
    continuation to be meaningful).  When [checkpoint_every] and
    [on_checkpoint] are both given, the callback receives a fresh
    snapshot after every [checkpoint_every] processed faults.
    [should_stop] is polled between faults; returning [true] stops the
    run at the next boundary with [interrupted = true] and a final
    snapshot in the result.

    @raise Invalid_argument if [order] is not a permutation of
    [0 .. count-1], or the snapshot does not match the fault list. *)

val coverage : Fault_list.t -> result -> float
(** Fraction of faults detected, over faults not proven untestable. *)

val run_compacting :
  ?config:config -> ?secondary_limit:int -> Fault_list.t -> order:int array -> result
(** The engine with classic {e dynamic compaction} (the paper's
    reference [1]): after each primary test cube, up to
    [secondary_limit] (default 50) undetected faults later in [order]
    are targeted under the cube's assignments, within the primary's
    per-fault deadline, merging every success into the vector before
    random fill.  This is the costly alternative the
    ADI ordering competes with; ablation A8 compares them.  It runs
    {!run}'s loop with the config's [retries] forced to 0 (a single
    pass) and no checkpointing; time budgets behave as in {!run}.  With
    [secondary_limit = 0] its result equals {!run}'s at [retries = 0]. *)

val fill_cube : Util.Rng.t -> Ternary.t array -> bool array
(** Replace don't-cares with random values. *)
