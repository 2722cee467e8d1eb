(** Static test-set compaction by reverse-order fault simulation.

    Tests are fault-simulated in reverse generation order; a test is
    kept only if it detects a fault no later-kept test detects.  Later
    tests tend to target hard faults and accidentally cover many easy
    ones, so this classic pass removes early tests made redundant.  Not
    part of the paper's flow (it would blur the ordering comparison) —
    provided for the library's own sake and for the ablation bench. *)

type result = {
  kept : int array;  (** indices of kept tests, in original order *)
  tests : Patterns.t;  (** the compacted test set *)
}

val reverse_order : Fault_list.t -> Patterns.t -> result
(** Single-threaded, like the engine's drop scans.
    @raise Invalid_argument if pattern width disagrees with the
    circuit's PI count. *)

val set_cover : ?jobs:int -> Fault_list.t -> Patterns.t -> result
(** Stronger (and costlier) static compaction: non-dropping simulation
    gives each test's full detection set, then a greedy set cover picks
    tests by decreasing marginal coverage.  Usually (not always)
    smaller than {!reverse_order}'s result. *)
