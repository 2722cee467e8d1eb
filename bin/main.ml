(* adi-atpg: command-line front end.

   Circuits are named either by a synthetic-suite entry ("syn420"),
   a built-in ("c17", "lion"), or a path to a .bench file. *)

open Cmdliner

let load_circuit ?(recover = false) spec =
  if Sys.file_exists spec then begin
    let c =
      if recover then begin
        let c_opt, diags =
          if Filename.check_suffix spec ".blif" then Blif_format.parse_file_recover spec
          else Bench_format.parse_file_recover spec
        in
        List.iter
          (fun d -> Printf.eprintf "adi-atpg: %s\n" (Util.Diagnostics.to_string d))
          diags;
        match c_opt with
        | Some c -> c
        | None ->
            Printf.eprintf "adi-atpg: %s: no usable circuit after recovery\n" spec;
            exit 2
      end
      else if Filename.check_suffix spec ".blif" then Blif_format.parse_file spec
      else Bench_format.parse_file spec
    in
    if Circuit.has_state c then fst (Scan.combinational c) else c
  end
  else Suite.build_by_name spec

(* Turn library errors into clean CLI failures: exit 1 for usage
   errors, exit 2 for typed diagnostics (parse/checkpoint problems). *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "adi-atpg: %s\n" msg;
      exit 1
  | Util.Diagnostics.Failed d ->
      Printf.eprintf "adi-atpg: %s\n" (Util.Diagnostics.to_string d);
      exit 2
  | Sys_error msg ->
      Printf.eprintf "adi-atpg: %s\n" msg;
      exit 1

let recover_arg =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:
          "Best-effort netlist parsing: report and skip malformed statements instead of \
           failing on the first one.")

let circuit_arg =
  let doc = "Circuit: a suite name (syn208..syn13207), c17, lion, or a .bench file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let seed_arg =
  let doc = "Random seed (drives U selection and random fill)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Every Run_config flag is described once, in [Run_flags]; build the
   cmdliner terms generically from that table.  The term evaluates to a
   [Run_config.t -> Run_config.t] so the builders (and their typed
   [Invalid_flag] diagnostics) run inside [guard], not during argument
   parsing. *)
let cfg_endo_term specs =
  let endo_of (s : Run_flags.spec) =
    let ainfo = Arg.info s.Run_flags.names ~docv:s.Run_flags.docv ~doc:s.Run_flags.doc in
    let opt_endo conv f =
      Term.(
        const (fun o cfg -> match o with None -> cfg | Some v -> f v cfg)
        $ Arg.value (Arg.opt (Arg.some conv) None ainfo))
    in
    match s.Run_flags.kind with
    | Run_flags.Flag f ->
        Term.(
          const (fun b cfg -> if b then f true cfg else cfg)
          $ Arg.value (Arg.flag ainfo))
    | Run_flags.Int f -> opt_endo Arg.int f
    | Run_flags.Float f -> opt_endo Arg.float f
    | Run_flags.String f -> opt_endo Arg.string f
  in
  List.fold_left
    (fun acc s -> Term.(const (fun g e cfg -> e (g cfg)) $ acc $ endo_of s))
    (Term.const Fun.id) specs

(* The CLI defaults [jobs] to the recommended domain count; everything
   else starts from [Run_config.default]. *)
let default_cfg () = Run_config.with_jobs (Util.Parallel.default_jobs ()) Run_config.default

let pipeline_cfg_term = cfg_endo_term Run_flags.pipeline_specs

(* --- stats ------------------------------------------------------- *)

let stats_cmd =
  let run spec recover = guard @@ fun () ->
    let c = load_circuit ~recover spec in
    Format.printf "%a@." Stats.pp (Stats.of_circuit c);
    List.iter
      (fun d -> Format.printf "%a@." Util.Diagnostics.pp d)
      (Validate.diagnostics c)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print circuit statistics")
    Term.(const run $ circuit_arg $ recover_arg)

(* --- faults ------------------------------------------------------ *)

let faults_cmd =
  let run spec = guard @@ fun () ->
    let c = load_circuit spec in
    let full = Fault_list.full c in
    let r = Collapse.equivalence full in
    let st = r.Collapse.stages in
    Printf.printf "full fault universe : %d\n" (Fault_list.count full);
    Printf.printf "collapsed (classes) : %d\n" (Fault_list.count r.Collapse.representatives);
    Printf.printf "collapse ratio      : %.2f\n" (Collapse.collapse_ratio r);
    Printf.printf "prime (dominance)   : %d\n" st.Collapse.prime;
    Printf.printf "dominance ratio     : %.2f\n" (Collapse.dominance_ratio r);
    Printf.printf "checkpoint classes  : %d\n" st.Collapse.checkpoints;
    Printf.printf "probe sites         : %d\n" st.Collapse.probes
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Count stuck-at faults before/after equivalence and dominance collapsing")
    Term.(const run $ circuit_arg)

(* --- sim --------------------------------------------------------- *)

let sim_cmd =
  let vectors =
    Arg.(value & opt int 1024 & info [ "n"; "vectors" ] ~docv:"N" ~doc:"Random vectors to simulate.")
  in
  let run spec n endo = guard @@ fun () ->
    let cfg = endo (default_cfg ()) in
    let c = load_circuit spec in
    let fl = Collapse.collapsed c in
    let rng = Util.Rng.create cfg.Run_config.seed in
    let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:n in
    let { Faultsim.detected; _ } = Faultsim.with_dropping fl pats in
    Printf.printf "%d random vectors detect %d / %d collapsed faults (%.2f%%)\n" n detected
      (Fault_list.count fl)
      (100.0 *. float_of_int detected /. float_of_int (Fault_list.count fl))
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Random-pattern fault simulation with dropping")
    Term.(const run $ circuit_arg $ vectors $ pipeline_cfg_term)

(* --- adi --------------------------------------------------------- *)

let adi_cmd =
  let run spec endo = guard @@ fun () ->
    let cfg = endo (default_cfg ()) in
    let c = load_circuit spec in
    let setup = Pipeline.prepare cfg c in
    let adi = setup.Pipeline.adi in
    let sel = setup.Pipeline.selection in
    Printf.printf "|U| = %d vectors (pool detected %d faults)\n"
      (Patterns.count sel.Adi_index.u) sel.Adi_index.pool_detected;
    Printf.printf "U fault coverage = %.3f\n" (Adi_index.coverage_of_u adi);
    (match Adi_index.min_max adi with
    | Some (lo, hi) ->
        Printf.printf "ADImin = %d, ADImax = %d, ratio = %.2f\n" lo hi
          (float_of_int hi /. float_of_int lo)
    | None -> print_endline "U detects no faults");
    (* Small histogram of ADI values. *)
    let det = Array.to_list adi.Adi_index.adi |> List.filter (fun a -> a > 0) in
    match det with
    | [] -> ()
    | _ ->
        let lo = List.fold_left min max_int det and hi = List.fold_left max 0 det in
        let buckets = 8 in
        let width = max 1 ((hi - lo + buckets) / buckets) in
        let counts = Array.make buckets 0 in
        List.iter
          (fun a ->
            let b = min (buckets - 1) ((a - lo) / width) in
            counts.(b) <- counts.(b) + 1)
          det;
        print_endline "ADI histogram (detected faults):";
        Array.iteri
          (fun b cnt ->
            Printf.printf "  [%4d..%4d] %s %d\n" (lo + (b * width))
              (lo + ((b + 1) * width) - 1)
              (String.make (min 60 cnt) '#')
              cnt)
          counts
  in
  Cmd.v
    (Cmd.info "adi" ~doc:"Compute accidental detection indices")
    Term.(const run $ circuit_arg $ pipeline_cfg_term)

(* --- order ------------------------------------------------------- *)

let order_spec =
  List.find (fun s -> List.mem "order" s.Run_flags.names) Run_flags.engine_specs

let order_cfg_term = cfg_endo_term (Run_flags.pipeline_specs @ [ order_spec ])

let order_cmd =
  let count =
    Arg.(value & opt int 20 & info [ "n" ] ~docv:"N" ~doc:"How many leading faults to print.")
  in
  let run spec endo n = guard @@ fun () ->
    let cfg = endo (default_cfg ()) in
    let kind = cfg.Run_config.order in
    let c = load_circuit spec in
    let setup = Pipeline.prepare cfg c in
    let order = Ordering.order kind setup.Pipeline.adi in
    Printf.printf "first %d faults of F%s:\n" (min n (Array.length order))
      (Ordering.to_string kind);
    Array.iteri
      (fun pos fi ->
        if pos < n then
          Printf.printf "  %3d. f%-5d ADI=%-5d %s\n" (pos + 1) fi
            setup.Pipeline.adi.Adi_index.adi.(fi)
            (Fault.to_string setup.Pipeline.circuit (Fault_list.get setup.Pipeline.faults fi)))
      order
  in
  Cmd.v
    (Cmd.info "order" ~doc:"Print the head of an ordered fault set")
    Term.(const run $ circuit_arg $ order_cfg_term $ count)

(* --- atpg -------------------------------------------------------- *)

let atpg_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write generated vectors, one per line.")
  in
  let run spec endo recover out = guard @@ fun () ->
    let cfg = endo (default_cfg ()) in
    let c = load_circuit ~recover spec in
    (* With a checkpoint configured, Ctrl-C requests a clean stop at the
       next fault boundary instead of killing the process mid-run. *)
    let stop = ref false in
    if cfg.Run_config.checkpoint <> None then
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    let r = Harness.run_atpg_cfg ~should_stop:(fun () -> !stop) cfg c in
    if cfg.Run_config.checkpoint <> None then Sys.set_signal Sys.sigint Sys.Signal_default;
    let e = r.Harness.result in
    print_string r.Harness.report;
    Printf.printf "runtime     : %.3fs (%d decisions, %d backtracks)\n" e.Engine.runtime_s
      e.Engine.stats.Podem.decisions e.Engine.stats.Podem.backtracks;
    (match r.Harness.checkpoint_saved with
    | Some path -> Printf.printf "checkpoint  : saved to %s (rerun with --resume)\n" path
    | None ->
        if e.Engine.interrupted then
          Printf.printf "checkpoint  : none (pass --checkpoint FILE to make runs resumable)\n");
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Array.iter
              (fun s -> output_string oc (s ^ "\n"))
              (Patterns.to_strings e.Engine.tests));
        Printf.printf "wrote %s\n" path);
    Option.iter print_string r.Harness.metrics_report;
    if e.Engine.interrupted then exit 3
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Generate a test set with a chosen fault order")
    Term.(
      const run $ circuit_arg $ cfg_endo_term Run_flags.atpg_specs $ recover_arg $ out)

(* --- gen --------------------------------------------------------- *)

let gen_cmd =
  let pis = Arg.(value & opt int 20 & info [ "pis" ] ~docv:"N" ~doc:"Primary inputs.") in
  let gates = Arg.(value & opt int 200 & info [ "gates" ] ~docv:"N" ~doc:"Logic gates.") in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "gen" ] ~docv:"SPEC"
          ~doc:
            "Use the parameterised scalable family instead of --pis/--gates/--seed: \
             comma-separated key=value pairs (gates, pis, outputs, seed, locality, \
             reconv, arity; integers accept k/m suffixes), e.g. \
             gates=100k,reconv=0.3,seed=7. Deterministic: the structural digest is \
             printed so runs can be cross-checked.")
  in
  let irr =
    Arg.(value & flag & info [ "irredundant" ] ~doc:"Run redundancy removal on the result.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output .bench path.")
  in
  let run pis gates seed spec irr out = guard @@ fun () ->
    let c =
      match spec with
      | Some text -> Generate.build (Generate.spec_of_string text)
      | None -> Generate.random ~seed ~name:"generated" (Generate.profile ~pis ~gates ())
    in
    let c = if irr then fst (Irredundant.remove c) else c in
    if spec <> None then Printf.eprintf "digest: %s\n%!" (Generate.digest c);
    match out with
    | Some path ->
        if Filename.check_suffix path ".blif" then Blif_format.write_file path c
        else Bench_format.write_file path c;
        Format.printf "%a -> %s@." Circuit.pp_summary c path
    | None -> print_string (Bench_format.to_string c)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random benchmark circuit")
    Term.(const run $ pis $ gates $ seed_arg $ spec $ irr $ out)

(* --- coverage ------------------------------------------------------ *)

let coverage_cmd =
  let tests_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "tests" ] ~docv:"FILE" ~doc:"Test vectors, one 0/1 row per line (PI order).")
  in
  let run spec tests_path = guard @@ fun () ->
    let c = load_circuit spec in
    let fl = Collapse.collapsed c in
    let pats = Patterns.load_file tests_path in
    if Patterns.n_inputs pats <> Array.length (Circuit.inputs c) then
      invalid_arg "test vector width does not match the circuit's inputs";
    let curve = Coverage.of_test_set fl pats in
    Printf.printf "tests        : %d\n" (Patterns.count pats);
    Printf.printf "faults       : %d collapsed\n" (Fault_list.count fl);
    Printf.printf "coverage     : %.3f\n" (Coverage.final_coverage curve);
    Printf.printf "AVE          : %.2f tests to detection\n" (Coverage.ave curve);
    List.iter
      (fun target ->
        match Coverage.tests_for_coverage curve ~target with
        | Some k -> Printf.printf "%.0f%% reached  : after %d tests\n" (100. *. target) k
        | None -> Printf.printf "%.0f%% reached  : never\n" (100. *. target))
      [ 0.5; 0.75; 0.9 ]
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Evaluate an external test set: coverage, AVE, milestones")
    Term.(const run $ circuit_arg $ tests_arg)

(* --- scan-insert ---------------------------------------------------- *)

let scan_insert_cmd =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Output netlist path.")
  in
  let run spec out = guard @@ fun () ->
    let c =
      if Sys.file_exists spec then
        if Filename.check_suffix spec ".blif" then Blif_format.parse_file spec
        else Bench_format.parse_file spec
      else invalid_arg "scan-insert expects a sequential netlist file"
    in
    let scanned, chain = Scan.insert_chain c in
    (if Filename.check_suffix out ".blif" then Blif_format.write_file out scanned
     else if Filename.check_suffix out ".v" then Verilog_format.write_file out scanned
     else Bench_format.write_file out scanned);
    Printf.printf "chain: %s\n" (String.concat " -> " (Array.to_list chain.Scan.cells));
    Printf.printf "tester cycles per test: %d\n" (Testbench.cycles_per_test chain);
    Format.printf "%a -> %s@." Circuit.pp_summary scanned out
  in
  Cmd.v
    (Cmd.info "scan-insert" ~doc:"Stitch all flip-flops into a mux-D scan chain")
    Term.(const run $ circuit_arg $ out)

(* --- convert ------------------------------------------------------ *)

let convert_cmd =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Output path: .bench, .blif or .v")
  in
  let run spec out = guard @@ fun () ->
    let c =
      (* Keep sequential structure when converting formats. *)
      if Sys.file_exists spec then
        if Filename.check_suffix spec ".blif" then Blif_format.parse_file spec
        else Bench_format.parse_file spec
      else Suite.build_by_name spec
    in
    (if Filename.check_suffix out ".blif" then Blif_format.write_file out c
     else if Filename.check_suffix out ".v" then Verilog_format.write_file out c
     else Bench_format.write_file out c);
    Format.printf "%a -> %s@." Circuit.pp_summary c out
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between .bench, .blif and (write-only) Verilog")
    Term.(const run $ circuit_arg $ out)

(* --- experiment -------------------------------------------------- *)

let experiment_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:("One of: " ^ String.concat ", " Harness.experiment_names ^ "."))
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Include the two large circuits (slow).")
  in
  let run which full seed =
    guard (fun () -> print_string (Harness.run_experiment ~seed ~full which))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate a table or figure from the paper. The tables run one \
          fault-simulation lane: the command takes no --jobs, and results are identical \
          at any lane count.")
    Term.(const run $ which $ full $ seed_arg)

let main_cmd =
  let info =
    Cmd.info "adi-atpg" ~version:Util.Version.version
      ~doc:"Accidental-detection-index fault ordering for full-scan ATPG (DATE 2005 reproduction)"
  in
  Cmd.group info
    [ stats_cmd; faults_cmd; sim_cmd; adi_cmd; order_cmd; atpg_cmd; gen_cmd; convert_cmd;
      coverage_cmd; scan_insert_cmd; experiment_cmd ]

let () =
  (* Arm chaos failpoints before any subcommand runs, so the offline
     CLI is injectable the same way the service binaries are; a
     malformed spec must fail loudly, not fake a clean run. *)
  (try Util.Failpoint.install_from_env ()
   with Util.Diagnostics.Failed d ->
     Printf.eprintf "adi-atpg: %s\n" (Util.Diagnostics.to_string d);
     exit 2);
  exit (Cmd.eval main_cmd)
