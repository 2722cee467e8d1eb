(** A persistent domain pool with deterministic work partitioning.

    Built directly on [Domain]/[Mutex]/[Condition] (no external
    dependencies).  A pool of [jobs] lanes executes on at most
    [min jobs (recommended_domain_count)] domains — the calling domain
    plus spawned workers; the lane count only shapes the partitioning,
    while the domain count never oversubscribes the machine (extra
    domains would stall every stop-the-world minor collection).  A pool
    of one lane spawns no domains at all and runs everything inline —
    the serial reference path.

    All partitioning is {e static}: [parallel_for]/[map_slices] cut the
    index range into at most [jobs] contiguous slices whose boundaries
    depend only on the range length and the pool size, never on
    scheduling, and {!map_slices} returns its results in slice order.
    Any computation whose slices write disjoint state is therefore
    bit-identical to its serial execution regardless of how domains
    interleave. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size the CLI's
    [--jobs] flag defaults to. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] lanes (default {!default_jobs}; values above
    128 are clamped to the domain limit).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Number of lanes — the partitioning width requested at creation,
    independent of how many domains actually run them. *)

val shutdown : t -> unit
(** Join all worker domains (each drains its queued jobs first).
    Idempotent; the pool is unusable afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down when [f]
    returns or raises. *)

val run : t -> (unit -> unit) array -> unit
(** [run t tasks] executes every task exactly once, dealing them out in
    contiguous groups over the worker domains and the caller (which
    always executes a share itself) and blocking until all complete.
    If tasks raise, the exception of the lowest-indexed raising task is
    re-raised after every task has finished (the pool stays usable).
    @raise Invalid_argument if there are more tasks than lanes. *)

val parallel_for : t -> int -> (int -> unit) -> unit
(** [parallel_for t n f] calls [f i] for every [i] in [0 .. n-1],
    statically slicing the range across the lanes.  Within a slice,
    indices run in increasing order. *)

val map_slices : t -> int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [map_slices t n f] cuts [0 .. n-1] into [min (jobs t) n] contiguous
    slices, evaluates [f ~lo ~hi] on each concurrently, and returns the
    results in slice order.  Empty for [n = 0]. *)
