(** Ordered sets of input vectors.

    Storage is transposed for pattern-parallel simulation: one bit
    column per primary input, indexed by pattern number, so the
    simulator can lift 64 consecutive patterns into an [int64] word per
    input with a single array access.

    Pattern [p]'s value for input [i] is [value t ~input:i ~pattern:p].
    For {!exhaustive} sets, pattern [u] is the [n]-bit binary expansion
    of [u] with the {e first declared input as the most significant
    bit}, matching the paper's "vector given by its decimal
    representation" convention for [lion]. *)

type t

val n_inputs : t -> int
val count : t -> int

val value : t -> input:int -> pattern:int -> bool
val column : t -> int -> Util.Bitvec.t
(** The full bit column of one input; do not mutate. *)

val word : t -> input:int -> block:int -> int64
(** Bits [0..63] of the result are patterns [64*block .. 64*block+63];
    patterns beyond [count t] read as 0. *)

val blocks : t -> int
(** Number of 64-pattern blocks, [ceil (count / 64)]. *)

val of_vectors : n_inputs:int -> bool array array -> t
(** Row-major construction: element [p].(i) is input [i] of pattern
    [p]. *)

val vector : t -> int -> bool array
(** Row extraction (input order). *)

val random : Util.Rng.t -> n_inputs:int -> count:int -> t

val exhaustive : n_inputs:int -> t
(** All [2^n] vectors in increasing decimal order.
    @raise Invalid_argument if [n_inputs > 24]. *)

val prefix : t -> int -> t
(** First [n] patterns. *)

val concat : t -> t -> t
(** Append pattern sets over the same inputs. *)

val decimal : t -> int -> int
(** Decimal representation of a pattern (first input = MSB).
    @raise Invalid_argument if [n_inputs > 62]. *)

val to_strings : t -> string array
(** Each pattern as a ['0'/'1'] string in input order. *)

val of_strings : string array -> t
(** Parse ['0'/'1'] rows (as produced by {!to_strings}).
    @raise Invalid_argument on ragged rows, other characters, or an
    empty array (the input width would be unknown). *)

val load_file : string -> t
(** Read one vector per line, ignoring blank lines and [#] comments. *)

val save_file : string -> t -> unit
