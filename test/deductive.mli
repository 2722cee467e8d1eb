(** Deductive fault simulation (Armstrong 1972).

    One pass per pattern: simulate the fault-free circuit, then
    propagate {e fault lists} — for every line, the set of faults that
    would flip it under this pattern.  A gate with some inputs at its
    controlling value flips exactly when every controlling input flips
    and no non-controlling input does (intersection minus union); a
    gate with no controlling inputs flips when any input flips
    (union); parity gates flip on an odd number of flipped inputs
    (symmetric difference).

    A test oracle: a second, independent implementation of fault
    simulation semantics (all faults in one pass, one pattern at a
    time, where {!Faultsim} does 64 patterns at a time, one fault per
    propagation).  The suite checks it produces bit-identical
    detection sets to the event-driven {!Faultsim}. *)

val fault_lists : Fault_list.t -> bool array -> Util.Bitvec.t array
(** [fault_lists fl vec] simulates one input vector and returns, per
    node, the set of faults (as indices into [fl]) that flip that
    node's value.  The circuit must be combinational. *)

val detected_by_pattern : Fault_list.t -> bool array -> Util.Bitvec.t
(** Faults flipping at least one primary output — the union of the
    output fault lists. *)

val detection_sets : Fault_list.t -> Patterns.t -> Util.Bitvec.t array
(** Per fault, its detection set over the pattern set — same contract
    as {!Faultsim.detection_sets}. *)
