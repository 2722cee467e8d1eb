(** Fault-free circuit simulation.

    The bit-parallel entry points process 64 patterns per call; the
    scalar entry point is the slow reference the test-suite checks the
    fast paths against. *)

val block : Circuit.t -> Patterns.t -> int -> int64 array
(** [block c pats b] simulates pattern block [b] (patterns
    [64b .. 64b+63]) and returns one value word per node, indexed by
    node id.  The circuit must be combinational. *)

val superblock_into : Circuit.t -> Patterns.t -> width:int -> sb:int -> Util.Wordvec.t -> unit
(** Wide variant: one traversal evaluates the [width] consecutive
    blocks [sb*width .. sb*width + width - 1] into a flat arena of
    [node_count * width] words — node [n]'s lane is words
    [n*width .. n*width+width-1], word [w] holding block
    [sb*width + w].  Word-identical to [width] calls of {!block};
    words past the last block read as the all-zero vector.  The fast
    path of the wide-block fault simulator. *)

val outputs : Circuit.t -> Patterns.t -> Util.Bitvec.t array
(** Per primary output (in [Circuit.outputs] order), the bit column of
    its values across all patterns. *)

val eval_scalar : Circuit.t -> bool array -> bool array
(** Naive single-pattern reference: input values (in PI declaration
    order) to per-node values.  @raise Invalid_argument on width
    mismatch. *)
