(** Single-stuck-at fault simulation.

    The engine is parallel-pattern single-fault propagation (PPSFP): a
    {e superblock} of [width] consecutive 64-pattern blocks (64 to 512
    patterns) is simulated fault-free per pass, then per-fault
    detection words are derived.  Two ways of deriving them exist:

    - {b event propagation} — inject the fault and propagate its effect
      event-driven through the levelised fanout cone, comparing
      against the good values at the primary outputs.  It serves the
      single-fault entry points ({!detect_block}, the ATPG engine's hot
      path, and {!detect_block_outputs}, the dictionary's per-output
      kernel) and the stem probes below.
    - {b stem probing} — every lane is an independent scalar
      simulation, so [D(f) = activation(f) AND obs(site_node f)],
      where [obs(n)] is the word of lanes in which complementing [n]
      changes some output.  Observability is memoised per superblock
      and per site ("probe"), shared by every fault injecting at that
      site; chains of single-consumer nodes pay a local gate
      re-evaluation each, and only multi-fanout stems pay a real
      event propagation.  Every whole-set driver below uses it.

    Both give {e bit-identical} detection words for every fault; the
    event path stays the independent check of the stem path in the
    tests.

    {b Wide blocks.}  All hot per-node state (faulty values and the
    observability memo) lives in one flat {!Util.Wordvec} Bigarray
    arena of [2 * node_count * width] unboxed words per workspace.
    Word [w] of a node's lane holds block [sb*width + w] and is
    computed by exactly the width-1 formula, so detection words are
    bit-identical for every width — wider lanes only amortise the
    levelised traversal, event scheduling and per-fault dispatch over
    more patterns.  That identity is why no caller picks the width:
    {!detection_sets} derives it with {!superblock_width}, and the
    dropping family runs one block at a time.  Observability counters
    ({!sim_stats}) are advisory and may differ across widths (memo
    short-circuits fire per superblock rather than per block).

    There is one driver per mode.  {!detection_sets} takes [?jobs]
    (default 1): each of [min jobs superblocks] lanes owns a private
    {!workspace} and a static slice of the superblocks, the lanes run
    under one {!Util.Parallel.run}, and each detection word is written
    by exactly one lane, so results are bit-identical for every [jobs]
    regardless of scheduling.  The dropping family ({!with_dropping},
    {!detection_sets_capped}) is serial: one workspace
    scans the live faults block by block, because dropping makes each
    block's work depend on the previous one and both the fault-sliced
    scan and wider blocks lost to one narrow lane.

    All entry points require a combinational circuit. *)

type workspace
(** Reusable scratch state (the faulty-value / observability-memo
    arena, scheduling buckets).  One workspace serves any number of
    [detect_*] calls on its circuit. *)

val workspace : ?width:int -> Circuit.t -> workspace
(** [workspace ?width c] allocates a workspace simulating [width]
    64-pattern blocks per pass (default 1). *)

val good_arena : workspace -> Util.Wordvec.t
(** A fresh good-value arena of [node_count * width] words, sized for
    {!load_good}.  Backed by a Bigarray, so one arena can be filled by
    a leader domain and read by workers. *)

val load_good : workspace -> Util.Wordvec.t -> Patterns.t -> int -> unit
(** [load_good ws good pats sb] fills [good] with the fault-free
    values of superblock [sb] ({!Goodsim.superblock_into}) and
    invalidates the workspace's observability memo.  Call once per
    superblock before the [detect_*] entry points. *)

val detect_block : workspace -> good:Util.Wordvec.t -> Fault.t -> int64
(** [detect_block ws ~good f] returns the set of patterns (bit lanes)
    of the current superblock's {e first} block in which [f] is
    detected (event-driven kernel).  The single-block entry point for
    width-1 workspaces — the ATPG engine's hot path.  Lanes beyond the
    pattern count are meaningless; callers mask them. *)

val detect_block_outputs :
  workspace -> good:Util.Wordvec.t -> out:int64 array -> Fault.t -> int64 array
(** [detect_block_outputs ws ~good ~out f] is the wide variant of
    {!detect_block} with per-output resolution: [out] (length
    [Array.length (Circuit.outputs c) * width], cleared on entry)
    receives each primary output's divergence words at
    [output index * width + word], and the returned words are their
    per-word OR: word [w] is the detection word of block [sb*width + w].
    The returned array is workspace-owned scratch, overwritten by the
    next [detect_*] call.  The input to response-level (per-output)
    fault dictionaries. *)

(** {1 Observability}

    Every workspace carries always-on counters (propagation events,
    stem-kernel toggle/hit rates, accumulated good-simulation seconds).
    They are domain-private, so worker lanes update them freely; after a
    fork-join the leader reads or publishes them. *)

type sim_stats = {
  propagations : int;  (** event-driven propagation passes *)
  stem_toggles : int;  (** stem kernel: multi-fanout stems probed *)
  stem_observable : int;  (** …of which some lane reached an output *)
  stem_detect_words : int;  (** nonzero per-fault detection superblocks emitted *)
  goodsim_s : float;  (** seconds inside good simulation (0 unless tracing) *)
}

val stats : workspace -> sim_stats

val publish_stats : Util.Trace.t -> workspace array -> unit
(** Sum the workspaces' counters into the tracer's metrics registry
    ([faultsim.propagations], [faultsim.stem_*], per-lane
    [goodsim.lane_s] histogram samples).  No-op on a disabled tracer.
    The whole-set drivers below call this themselves; it is exported
    for callers that drive {!detect_block} directly (the ATPG engine). *)

(** {1 Whole-pattern-set drivers}

    Every driver uses stem probing and returns the same words as
    per-fault event propagation at width 1. *)

val superblock_width : jobs:int -> int -> int
(** [superblock_width ~jobs blocks] is the superblock width
    {!detection_sets} uses for [blocks] 64-pattern blocks over [jobs]
    lanes: [min 8 (ceil (blocks / jobs))], at least 1 — one superblock
    per lane while that fits in 8 words.  [jobs] below 1 counts as 1.
    [Diagnosis.Dictionary.build] uses the same rule. *)

val detection_sets : ?jobs:int -> Fault_list.t -> Patterns.t -> Util.Bitvec.t array
(** Simulation {e without fault dropping}: for every fault [f] the full
    detection set [D(f)] over all patterns — the input the accidental
    detection index is computed from. *)

val ndet : Util.Bitvec.t array -> Patterns.t -> int array
(** [ndet dsets pats] gives [ndet(u)] — the number of faults detected
    by each pattern — from the detection sets. *)

type drop_result = {
  first_detection : int array;
      (** per fault, the first detecting pattern index, or -1 *)
  detected : int;  (** number of detected faults *)
}

val with_dropping : Fault_list.t -> Patterns.t -> drop_result
(** Simulation with fault dropping: each fault is removed from
    consideration after its first detection. *)

val detection_sets_capped : Fault_list.t -> Patterns.t -> n:int -> Util.Bitvec.t array
(** n-detection variant of {!detection_sets}: each fault's detection
    set records at most its [n] earliest detecting patterns (the fault
    is dropped afterwards).  The paper's cheaper alternative for
    estimating [ndet(u)]. *)

val detects : Circuit.t -> Fault.t -> bool array -> bool
(** Single-pattern convenience: does the given PI assignment detect the
    fault?  (Used to validate generated tests.) *)
