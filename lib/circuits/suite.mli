(** The synthetic benchmark suite.

    Stand-ins for the irredundant combinational cores of the ISCAS-89
    circuits the paper evaluates (see DESIGN.md for the substitution
    rationale).  Each entry matches the published circuit's input count
    (Table 4's "inp" column — PIs plus scanned flip-flops) and
    approximate gate count; the logic itself is drawn from
    {!Generate.random} with a fixed per-entry seed.

    The suite ships as the output of that recipe: each netlist is
    embedded in the library as [.bench] text (lib/circuits/data), so
    {!build} is a parse.  {!regenerate} runs the recipe itself; the
    tests and the bench [suite] stage check that it still yields the
    embedded text byte for byte. *)

type entry = {
  name : string;  (** [syn208] stands in for [irs208], etc. *)
  paper_name : string;  (** the circuit it stands in for *)
  pis : int;
  pos : int;  (** target primary-output count (POs + scanned DFFs of the original) *)
  gates : int;
  seed : int;
  big : bool;  (** the two large circuits, excluded from quick runs *)
}

val entries : entry list
(** All fourteen circuits, in the paper's Table 4 order. *)

val small : entry list
(** Entries with [big = false] (through [syn1196]). *)

val find : string -> entry option
val names : unit -> string list

val netlist : entry -> string
(** The embedded [.bench] text of the circuit. *)

val build : entry -> Circuit.t
(** Parse {!netlist}, titled with the entry's name.  Each call parses
    afresh; nothing is memoised, so concurrent calls share no state. *)

val regenerate : entry -> Circuit.t
(** Run the recipe the embedded netlist came from: random generation
    calibrated to the published gate count, redundancy removal
    ({!Irredundant.remove}) and revival of orphaned inputs, mirroring
    how the paper's "irredundant versions" were produced.
    [Bench_format.to_string (regenerate e)] equals [netlist e].  Takes
    from a fraction of a second (syn208) to about 90 s (syn1196). *)

val build_by_name : string -> Circuit.t
(** @raise Invalid_argument on an unknown name.  Also accepts the
    library circuits ["c17"] and ["lion"] (the lion full-scan
    combinational core). *)
