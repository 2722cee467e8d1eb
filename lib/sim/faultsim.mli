(** Single-stuck-at fault simulation.

    The engine is parallel-pattern single-fault propagation (PPSFP): a
    {e superblock} of [width] consecutive 64-pattern blocks (64 to 512
    patterns) is simulated fault-free per pass, then per-fault
    detection words are derived by one of two kernels:

    - {b event} — inject each fault and propagate its effect
      event-driven through the levelised fanout cone, comparing
      against the good values at the primary outputs.  The reference
      kernel.
    - {b stem} — probe decomposition: each lane is an independent
      scalar simulation, so
      [D(f) = activation(f) AND obs(site_node f)], where [obs(n)] is
      the word of lanes in which complementing [n] changes some
      output.  Observability is memoised per superblock and per site
      ("probe"), shared by every fault injecting at that site; chains
      of single-consumer nodes pay a local gate re-evaluation each,
      and only multi-fanout stems pay a real propagation.

    {b Wide blocks.}  All hot per-node state (faulty values and the
    observability memo) lives in one flat {!Util.Wordvec} Bigarray
    arena of [2 * node_count * width] unboxed words per workspace.
    Word [w] of a node's lane holds block [sb*width + w] and is
    computed by exactly the width-1 formula, so detection words are
    bit-identical for every width — wider lanes only amortise the
    levelised traversal, event scheduling and per-fault dispatch over
    more patterns.  Drivers take [?block_width] (1, accepted widths
    are small powers of two up to 8 at the CLI) and scan a
    superblock's words in increasing block order, so fault dropping,
    n-detection capping and first-detection indices also match the
    narrow scan exactly.

    Both kernels produce {e bit-identical} detection words for
    every fault; they differ only in work per word.  Observability
    counters ({!sim_stats}) are advisory and may differ across widths
    (memo short-circuits fire per superblock rather than per block).

    There is one driver per mode.  Each takes an optional [?jobs]
    argument (default 1) and runs over a {!Util.Parallel} pool of that
    many lanes (a one-lane pool spawns no domain and runs inline): each
    lane owns a private {!workspace} and a static slice of the work
    while all lanes share read-only inputs, and detection words are
    merged in a fixed order, so results are bit-identical for every
    [jobs] regardless of scheduling.

    All entry points require a combinational circuit. *)

type kernel =
  | Event  (** per-fault event-driven propagation *)
  | Stem  (** memoised site-probe observability, full stem propagation *)

val kernel_name : kernel -> string
val kernel_names : string list
val kernel_of_string : string -> kernel option

type workspace
(** Reusable scratch state (the faulty-value / observability-memo
    arena, scheduling buckets).  One workspace serves any number of
    [detect_*] calls on its circuit. *)

val workspace : ?width:int -> Circuit.t -> workspace
(** [workspace ?width c] allocates a workspace simulating [width]
    64-pattern blocks per pass (default 1). *)

val width : workspace -> int

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

val detect_superblock : workspace -> good:Util.Wordvec.t -> Fault.t -> int64 array
(** Wide variant of {!detect_block}: word [w] of the result is the
    detection word of block [sb*width + w].  The returned array is
    workspace-owned scratch, overwritten by the next [detect_*] call —
    copy what must survive. *)

val detect_block_outputs :
  workspace -> good:Util.Wordvec.t -> out:int64 array -> Fault.t -> int64 array
(** [detect_block_outputs ws ~good ~out f] is {!detect_superblock}
    with per-output resolution: [out] (length
    [Array.length (Circuit.outputs c) * width], cleared on entry)
    receives each primary output's divergence words at
    [output index * width + word], and the returned words are their
    per-word OR — bit-identical to [detect_superblock ws ~good f].
    The returned array is workspace-owned scratch.  The input to
    response-level (per-output) fault dictionaries. *)

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

    When [?kernel] is omitted the historical defaults apply:
    [detection_sets] auto-selects (event when [jobs <= 1], stem
    otherwise); the dropping-family drivers run event-driven.
    [?block_width] (default 1) sets the superblock width; results are
    bit-identical for every (kernel, jobs, block_width) combination. *)

val detection_sets :
  ?jobs:int ->
  ?kernel:kernel ->
  ?block_width:int ->
  Fault_list.t ->
  Patterns.t ->
  Util.Bitvec.t array
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

val with_dropping :
  ?jobs:int -> ?kernel:kernel -> ?block_width:int -> Fault_list.t -> Patterns.t -> drop_result
(** Simulation with fault dropping: each fault is removed from
    consideration after its first detection. *)

val n_detection :
  ?jobs:int ->
  ?kernel:kernel ->
  ?block_width:int ->
  Fault_list.t ->
  Patterns.t ->
  n:int ->
  int array
(** n-detection simulation: per fault, the number of detecting patterns
    seen, counting at most [n] (a fault is dropped after its [n]-th
    detection).  [n_detection fl pats ~n:1] counts like
    {!with_dropping}. *)

val detection_sets_capped :
  ?jobs:int ->
  ?kernel:kernel ->
  ?block_width:int ->
  Fault_list.t ->
  Patterns.t ->
  n:int ->
  Util.Bitvec.t array
(** n-detection variant of {!detection_sets}: each fault's detection
    set records at most its [n] earliest detecting patterns (the fault
    is dropped afterwards).  The paper's cheaper alternative for
    estimating [ndet(u)]. *)

val detects : Circuit.t -> Fault.t -> bool array -> bool
(** Single-pattern convenience: does the given PI assignment detect the
    fault?  (Used to validate generated tests.) *)
