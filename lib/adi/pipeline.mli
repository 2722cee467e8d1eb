(** End-to-end flow: circuit -> full-scan model -> collapsed faults ->
    vector set U -> ADI -> fault order -> test generation.

    This is the library's main entry point; the experiment harness and
    the examples are thin wrappers over it.  All knobs travel in one
    {!Run_config.t}; each phase runs under a [Util.Trace] span
    ([pipeline.prepare] > [prepare.collapse] / [prepare.select_u] /
    [prepare.adi], then [pipeline.order] and [pipeline.engine]) on the
    current tracer, which is a no-op unless observability was
    requested. *)

type setup = {
  circuit : Circuit.t;  (** the combinational (full-scan) model *)
  faults : Fault_list.t;  (** equivalence-collapsed fault universe *)
  collapse : Collapse.result;
  selection : Adi_index.u_selection;
  adi : Adi_index.t;
  config : Run_config.t;  (** the configuration the setup was built with *)
}

val seed : setup -> int
val jobs : setup -> int

val prepare : Run_config.t -> Circuit.t -> setup
(** Build everything up to the ADI values.  Sequential circuits are put
    through {!Scan.combinational} first.  [jobs] only sets the lane
    count of the detection-set simulation; every result is identical
    for any value.  @raise Util.Diagnostics.Failed when the
    configuration is invalid ({!Run_config.validate}). *)

type run = {
  kind : Ordering.kind;
  order : int array;
  engine : Engine.result;
}

val run_order : setup -> Ordering.kind -> run
(** Order the faults and generate a test set with the engine
    configuration carried by the setup ({!Run_config.engine_config}):
    the engine's random-fill seed is the setup seed, so different
    orders differ only in the fault sequence, as in the paper's
    comparison. *)

val test_count : run -> int
