(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is exactly reproducible from a seed.  The generator is
    splitmix64 (Steele et al.), which has a 64-bit state, passes BigCrush,
    and is trivially splittable — good enough for workload generation and
    random-fill decisions, and dependency-free. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed].  Two generators
    created from equal seeds produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** Raw 64-bit state, for checkpointing. *)

val restore : int64 -> t
(** Rebuild a generator from {!state}'s output; the stream continues
    exactly where the captured generator left off. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 30 uniformly random non-negative bits (as [Random.bits]). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
