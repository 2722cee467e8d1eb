(** Umbrella module: the library's public API in one namespace.

    Downstream users depend on the [adi_atpg] library and reach every
    component as [Adi_atpg.<Component>]; the examples in [examples/]
    are written against this module.  Each alias below is one of the
    systems listed in DESIGN.md.

    {1 Quick tour}

    {[
      let circuit = Adi_atpg.Suite.build_by_name "syn420" in
      let cfg = Adi_atpg.Run_config.(default |> with_seed 1) in
      let setup = Adi_atpg.Pipeline.prepare cfg circuit in
      let run = Adi_atpg.Pipeline.run_order setup Adi_atpg.Ordering.Dynm0 in
      Printf.printf "tests: %d\n" (Adi_atpg.Pipeline.test_count run)
    ]} *)

(** {1 Netlists} *)

module Gate = Gate
module Circuit = Circuit
module Bench_format = Bench_format
module Blif_format = Blif_format
module Verilog_format = Verilog_format
module Scan = Scan
module Rewrite = Rewrite
module Validate = Validate
module Stats = Stats

(** {1 Logic values} *)

module Boolean = Boolean
module Logic_word = Logic_word
module Ternary = Ternary
module Five = Five

(** {1 Faults} *)

module Fault = Fault
module Fault_list = Fault_list
module Collapse = Collapse

(** {1 Simulation} *)

module Patterns = Patterns
module Goodsim = Goodsim
module Seqsim = Seqsim
module Testbench = Testbench
module Faultsim = Faultsim
module Refsim = Refsim

(** {1 Test generation} *)

module Scoap = Scoap
module Podem = Podem
module Dalg = Dalg
module Transition = Transition
module Engine = Engine
module Compact = Compact
module Reorder = Reorder
module Irredundant = Irredundant

(** {1 The paper's contribution: ADI fault ordering} *)

module Adi_index = Adi_index
module Ordering = Ordering
module Run_config = Run_config
module Pipeline = Pipeline
module Independence = Independence

(** {1 Diagnosis} *)

module Diagnosis = Diagnosis

(** {1 Metrics and workloads} *)

module Coverage = Coverage
module Library = Library
module Generate = Generate
module Twolevel = Twolevel
module Kiss = Kiss
module Suite = Suite

(** {1 Utilities} *)

module Rng = Util.Rng
module Bitvec = Util.Bitvec
module Table = Util.Table
module Plot = Util.Plot
module Metrics = Util.Metrics
module Trace = Util.Trace
