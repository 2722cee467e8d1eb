(** Binary max-heap over integer-keyed elements.

    Used by the dynamic fault-ordering procedures ([Fdynm], [F0dynm]):
    keys (accidental detection indices) only ever decrease, so the heap
    supports the classic lazy-deletion discipline — push stale entries
    freely and filter on pop.  Ties are broken towards the smaller
    element payload so orderings are deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> key:int -> 'a -> unit
(** Insert an entry.  O(log n). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the max-key entry; among equal keys the entry
    with the smaller payload (polymorphic compare) wins.  O(log n). *)
