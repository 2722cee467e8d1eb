(** PODEM test generation (Goel 1981).

    PODEM searches the primary-input space only: it repeatedly picks an
    {e objective} (activate the fault, then propagate its effect
    through the D-frontier), {e backtraces} the objective to an
    unassigned PI using SCOAP costs, assigns it, and forward-implies in
    the five-valued D-calculus.  Exhausting both values of every
    decision PI proves untestability; a backtrack limit bounds the
    search on hard faults.

    The generator produces a {e test cube}: PI values in
    {!Ternary.t}, with X for inputs the search never needed. *)

type outcome =
  | Test of Ternary.t array  (** PI cube (in PI declaration order) detecting the fault *)
  | Untestable  (** proven redundant: search space exhausted *)
  | Aborted  (** backtrack limit hit *)
  | Out_of_budget  (** wall-clock deadline hit before a verdict *)

exception Budget_exhausted
(** Internal signal for an expired deadline; search entry points catch
    it and return {!Out_of_budget}.  Exposed so sibling generators
    (the D-algorithm) can share the same protocol. *)

type stats = {
  mutable backtracks : int;
  mutable decisions : int;
  mutable implications : int;
}

type context
(** Reusable search state for one circuit (value slab, scheduling
    buckets, X-path scratch).  Create once, generate for many faults. *)

val context : ?stats:stats -> Circuit.t -> Scoap.t -> context

val generate_in :
  ?backtrack_limit:int ->
  ?deadline:Util.Budget.t ->
  ?fixed:Ternary.t array ->
  context ->
  Fault.t ->
  outcome
(** Run the search in a reused context.  The default [backtrack_limit]
    is 256.

    [deadline] bounds the search by wall clock as well: it is polled at
    every decision point, and an expired deadline yields
    [Out_of_budget] — distinct from [Aborted] (backtrack-limit hit) so
    callers can tell "ran out of patience" from "ran out of time".

    [fixed] constrains primary inputs (PI order, [X] = free): the
    search starts from those assignments and never retracts them — the
    mechanism behind dynamic compaction's secondary targets, where a
    new fault must be detected without disturbing the vector built so
    far.  [Untestable] then means "untestable under the constraint". *)

val generate :
  ?backtrack_limit:int ->
  ?deadline:Util.Budget.t ->
  ?stats:stats ->
  Circuit.t ->
  Scoap.t ->
  Fault.t ->
  outcome
(** One-shot convenience: [generate_in (context c scoap) f].  The
    circuit must be combinational.  Cubes returned are validated by
    construction: the five-valued simulation places a D/D' on a primary
    output. *)

val fresh_stats : unit -> stats

