module Trace = Util.Trace
module Metrics = Util.Metrics

type setup = {
  circuit : Circuit.t;
  faults : Fault_list.t;
  collapse : Collapse.result;
  selection : Adi_index.u_selection;
  adi : Adi_index.t;
  config : Run_config.t;
}

let seed setup = setup.config.Run_config.seed
let jobs setup = setup.config.Run_config.jobs

let prepare config circuit =
  Run_config.validate config;
  let { Run_config.seed; pool; target_coverage; jobs; _ } = config in
  let tr = Trace.current () in
  Trace.span tr
    ~attrs:
      [ ("circuit", Trace.Str (Circuit.title circuit)); ("seed", Trace.Int seed);
        ("jobs", Trace.Int jobs) ]
    "pipeline.prepare"
  @@ fun () ->
  let circuit =
    if Circuit.has_state circuit then
      Trace.span tr "prepare.scan" (fun () -> fst (Scan.combinational circuit))
    else circuit
  in
  let collapse =
    Trace.span tr "prepare.collapse" (fun () -> Collapse.equivalence (Fault_list.full circuit))
  in
  let faults = collapse.Collapse.representatives in
  let rng = Util.Rng.create seed in
  let selection =
    Trace.span tr "prepare.select_u" (fun () ->
        Adi_index.select_u ~pool ~target_coverage rng faults)
  in
  let adi =
    Trace.span tr "prepare.adi" (fun () ->
        Adi_index.compute ~jobs faults selection.Adi_index.u)
  in
  if Trace.enabled tr then begin
    let st = collapse.Collapse.stages in
    Metrics.set (Trace.counter tr "pipeline.faults") (Fault_list.count faults);
    Metrics.set (Trace.counter tr "pipeline.collapse.full") st.Collapse.full;
    Metrics.set (Trace.counter tr "pipeline.collapse.classes") st.Collapse.equivalence;
    Metrics.set (Trace.counter tr "pipeline.collapse.prime") st.Collapse.prime;
    Metrics.set (Trace.counter tr "pipeline.collapse.probes") st.Collapse.probes;
    Metrics.set (Trace.counter tr "pipeline.u_size") (Patterns.count selection.Adi_index.u);
    Metrics.set (Trace.counter tr "pipeline.pool_detected") selection.Adi_index.pool_detected
  end;
  { circuit; faults; collapse; selection; adi; config }

type run = { kind : Ordering.kind; order : int array; engine : Engine.result }

let run_order setup kind =
  let tr = Trace.current () in
  let kind_attr = [ ("order", Trace.Str (Ordering.to_string kind)) ] in
  let order =
    Trace.span tr ~attrs:kind_attr "pipeline.order" (fun () ->
        Ordering.order kind setup.adi)
  in
  let engine =
    Trace.span tr ~attrs:kind_attr "pipeline.engine" (fun () ->
        Engine.run ~config:(Run_config.engine_config setup.config) setup.faults ~order)
  in
  { kind; order; engine }

let test_count run = Patterns.count run.engine.Engine.tests
