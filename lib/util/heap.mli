(** Binary max-heap of integer payloads under integer keys.

    Used by the dynamic fault-ordering procedures ([Fdynm], [F0dynm]),
    whose payloads are fault indices: keys (accidental detection
    indices) only ever decrease, so the heap supports the classic
    lazy-deletion discipline — push stale entries freely and filter on
    pop.  Ties are broken towards the smaller payload so orderings are
    deterministic.  Keys and payloads compare as [int]s, never through
    polymorphic [compare]. *)

type t

val create : unit -> t

val push : t -> key:int -> int -> unit
(** Insert an entry.  O(log n). *)

val pop : t -> (int * int) option
(** Remove and return the max-key entry as [(key, payload)]; among
    equal keys the entry with the smaller payload wins.  O(log n). *)
