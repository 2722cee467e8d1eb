(** The accidental detection index (ADI) — Section 2 of the paper.

    Given a set of input vectors [U], simulated {e without fault
    dropping}:

    - [D(f)] is the set of vectors in [U] detecting fault [f];
    - [ndet(u)] is the number of faults vector [u] detects;
    - [ADI(f) = min { ndet(u) : u in D(f) }] for [f] detected by [U],
      and [ADI(f) = 0] otherwise.

    [ADI(f)] is a conservative estimate of the number of faults a test
    generated for [f] will detect (including [f] itself, so
    [ADI(f) >= 1] on detected faults). *)

type t = {
  fault_list : Fault_list.t;
  patterns : Patterns.t;  (** the vector set [U] *)
  dsets : Util.Bitvec.t array;  (** per fault, [D(f)] over [U] *)
  ndet : int array;  (** per vector, [ndet(u)] *)
  adi : int array;  (** per fault, [ADI(f)] *)
}

type estimator =
  | Minimum  (** the paper's conservative choice: [min ndet(u)] *)
  | Average
      (** the alternative Section 2 mentions: the mean of [ndet(u)]
          over [D(f)], rounded down (still [>= 1] on detected faults) *)

val compute :
  ?estimator:estimator ->
  ?jobs:int ->
  ?kernel:unit ->
  ?block_width:unit ->
  Fault_list.t ->
  Patterns.t ->
  t
(** Full non-dropping fault simulation of [U] followed by the chosen
    reduction (default {!Minimum}).  Cost: one
    {!Faultsim.detection_sets} run.  [jobs] (default 1) is the
    simulation's lane count; results are identical for any value.

    [kernel] and [block_width] are ignored; kept for
    perfbench/probe.ml until the next benchmark PR. *)

val compute_n_detection :
  ?estimator:estimator ->
  n:int ->
  Fault_list.t ->
  Patterns.t ->
  t
(** The paper's cheaper variant: estimate [ndet(u)] from n-detection
    fault simulation (each fault contributes only its [n] earliest
    detections), trading accuracy for simulation time.  With [n] large
    it converges to {!compute}. *)

val detected : t -> int -> bool
(** Was the fault detected by [U] (i.e. [ADI > 0])? *)

val min_max : t -> (int * int) option
(** [ADImin] and [ADImax] over detected faults — Table 4's columns.
    [None] when [U] detects nothing. *)

val ratio : t -> float option
(** [ADImax / ADImin] — Table 4's last column. *)

val coverage_of_u : t -> float
(** Fraction of the fault universe detected by [U]. *)

(** {1 Selecting the vector set U}

    The paper draws 10,000 random vectors, fault-simulates them with
    dropping, and keeps the shortest prefix reaching ~90% fault
    coverage (all 10,000 when 90% is never reached). *)

type u_selection = {
  u : Patterns.t;  (** the selected prefix *)
  pool_detected : int;  (** faults detected by the full pool *)
  prefix_detected : int;  (** faults detected by the selected prefix *)
}

val select_u :
  ?pool:int ->
  ?target_coverage:float ->
  ?jobs:int ->
  ?kernel:unit ->
  ?block_width:unit ->
  Util.Rng.t ->
  Fault_list.t ->
  u_selection
(** Defaults: [pool = 10_000], [target_coverage = 0.9] ([pool] is the
    candidate-vector count).  When the pool cannot reach the target
    (the circuit retains redundant faults), the threshold falls back to
    the target fraction of the faults the pool does detect, keeping [U]
    small as the paper intends.

    The pool scan is {!Faultsim.with_dropping}, which is serial.
    [jobs], [kernel] and [block_width] are ignored; kept for
    perfbench/probe.ml until the next benchmark PR. *)
