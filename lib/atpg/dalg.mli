(** Roth's D-algorithm — the classic alternative to PODEM.

    Where PODEM decides only at primary inputs, the D-algorithm makes
    decisions at internal gates: it drives the D-frontier forward by
    assigning non-controlling side inputs, and keeps a J-frontier of
    gates whose required output is not yet justified by their inputs,
    justifying them by choosing controlling-input assignments.  Values
    never change once assigned (X only refines to 0/1/D/D'), so
    backtracking is a trail-based undo.

    Provided as an independent engine for cross-validation: both
    generators must agree on testability (property-tested), and the
    ablation bench compares their search effort.

    Completeness caveat: propagation through parity gates with more
    than two inputs enumerates only the all-zero and all-one side
    assignments, so on circuits containing such gates an exhausted
    search is reported as {!Podem.Aborted} rather than
    {!Podem.Untestable}. *)

val generate :
  ?backtrack_limit:int ->
  ?deadline:Util.Budget.t ->
  ?stats:Podem.stats ->
  Circuit.t ->
  Scoap.t ->
  Fault.t ->
  Podem.outcome
(** Same contract as {!Podem.generate} (default [backtrack_limit] 256,
    unlimited [deadline]): a returned cube detects the fault for every
    fill; the circuit must be combinational. *)
