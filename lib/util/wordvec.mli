(** Flat [int64] word vectors backed by a C-layout {!Bigarray}.

    The wide-block simulation arenas: element storage is unboxed and
    contiguous (one malloc'd block outside the OCaml heap), so a
    [node_count * width] arena costs exactly [8] bytes per word with no
    per-element boxes and nothing for the GC to scan.  Simulator inner
    loops read and write it with [unsafe_get]/[unsafe_set].

    Indices are word indices; a simulator lane of width [W] for node
    [n] occupies words [n*W .. n*W + W - 1]. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] is an [n]-word vector, zero-filled. *)

val length : t -> int

val get : t -> int -> int64
(** Bounds-checked read. *)

val set : t -> int -> int64 -> unit
(** Bounds-checked write. *)

val unsafe_get : t -> int -> int64
(** Unchecked read — inner-loop primitive; the caller owns the bounds
    argument. *)

val unsafe_set : t -> int -> int64 -> unit
(** Unchecked write. *)

val fill : t -> int64 -> unit

val sub : t -> int -> int -> t
(** [sub t pos len] is a zero-copy view of [len] words starting at
    [pos]; writes through the view land in [t].  How one arena serves
    several per-node tables. *)

val blit : src:t -> dst:t -> unit
(** Whole-vector copy.  Lengths must match. *)
