(** The six fault orders of Section 3.

    Every order is a permutation of fault indices; the engine targets
    faults in that sequence.  Ties always break towards the smaller
    fault index (the paper leaves tie-breaking unspecified; this makes
    every order deterministic). *)

type kind =
  | Orig  (** original (fault-list) order — the baseline *)
  | Incr0  (** increasing ADI, zero-ADI faults last — the deliberately bad order *)
  | Decr  (** static decreasing ADI, zero-ADI faults last *)
  | Decr0  (** static decreasing ADI, zero-ADI faults first *)
  | Dynm  (** dynamic decreasing ADI, zero-ADI faults last *)
  | Dynm0  (** dynamic decreasing ADI, zero-ADI faults first *)

val all : kind list
val to_string : kind -> string
val of_string : string -> kind option
(** Exactly the names {!to_string} prints; anything else is [None]. *)

val order : kind -> Adi_index.t -> int array
(** Compute the permutation.

    The dynamic orders replay the paper's procedure: pick the remaining
    fault with the highest current ADI, append it, decrement [ndet(u)]
    for every [u] in [D(f)] (the fault would be dropped after being
    targeted), and let the remaining ADIs decay accordingly.  Implemented
    with a lazy-deletion max-heap — valid because [ndet] only decreases,
    hence ADIs only decrease. *)

val dynamic_reference : zero_first:bool -> Adi_index.t -> int array
(** O(n^2 |U|) literal transcription of the paper's dynamic procedure,
    used to validate the heap implementation in tests. *)
