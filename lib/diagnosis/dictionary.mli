(** Compact, versioned fault dictionaries.

    A dictionary fixes a fault universe and a test set and stores, per
    fault, its {e signature} — the set of tests that detect it — plus
    sparse per-output slices (which tests fail at which primary output)
    and the fault-free output columns.  Signatures are exactly the rows
    of {!Faultsim.detection_sets} over the same universe and tests;
    the per-output slices refine each row by the output the divergence
    is observed at, enabling response-level matching.

    Building runs under a [diagnosis.build] trace span and, like every
    simulator driver, is bit-identical for any [jobs]; the superblock
    width follows {!Faultsim.superblock_width}. *)

type t

val magic : string
val version : int

val build : ?jobs:int -> Fault_list.t -> Patterns.t -> t
(** [build fl pats] simulates every fault of [fl] (per-output event
    propagation, non-dropping) against [pats].  Requires a combinational circuit. *)

(** {1 Accessors} *)

val fault_count : t -> int
val test_count : t -> int
val output_count : t -> int
val tests : t -> Patterns.t

val circuit_digest : t -> string
(** Digest of the circuit the dictionary was built for. *)

val digest_of_circuit : Circuit.t -> string

val name : t -> int -> string
(** Human-readable fault name ({!Fault.to_string}). *)

val signature : t -> int -> Util.Bitvec.t
(** Failing-test set of a fault; do not mutate. *)

val slices : t -> int -> (int * Util.Bitvec.t) array
(** Sparse per-output slices of a fault: [(output index, failing tests
    observed at that output)], ascending by output index, zero rows
    omitted.  The union of the slice rows is the signature. *)

val output_fails : t -> int -> int -> Util.Bitvec.t option
(** [output_fails t fi oi] is fault [fi]'s failing-test set at output
    [oi], or [None] if the fault is never observed there. *)

val good_output : t -> int -> Util.Bitvec.t
(** Fault-free value column of one output across the tests. *)

val equal : t -> t -> bool
(** Structural equality over every stored field (used to prove
    jobs-independence). *)

(** {1 Diagnostic limit} *)

val classes : t -> int array array
(** Faults grouped by identical signature, each class in ascending
    fault order; classes ordered by their first member.  Members of a
    class are indistinguishable under this test set. *)

val resolution : t -> int
(** Number of distinct signature classes. *)

(** {1 Spill}

    Same discipline as the service store: header line
    ["ADI-DICT v1"], a hex digest of the marshalled payload, then the
    payload, published via {!Util.Atomic_file.write}. *)

val save : t -> string -> unit

val load : string -> t option
(** [None] on any mismatch — missing file, wrong magic/version,
    truncation, digest failure — never an error. *)
