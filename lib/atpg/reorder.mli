(** Static test-set reordering for steep fault-coverage curves.

    The paper contrasts its a-priori ADI ordering with the a-posteriori
    method of Lin et al. (ITC 2001, reference [7]): simulate the
    finished test set without dropping, then order the tests greedily
    so each position detects the most faults no earlier test detects.
    This module implements that baseline so the two approaches can be
    compared (ablation A5). *)

val greedy : ?jobs:int -> Fault_list.t -> Patterns.t -> int array
(** Permutation of test positions: position 0 holds the test with the
    largest detection count, and each subsequent position the test
    covering the most not-yet-detected faults.  Ties break to the
    earlier original position.  [jobs] (default 1) is the lane
    count of the detection-set simulation; the permutation is identical
    for any value. *)

val apply : Patterns.t -> int array -> Patterns.t
(** Rebuild the test set in the permuted order. *)
