(* Tests for the circuit workloads: the arithmetic library computes
   arithmetic, the two-level minimiser covers exactly its on-set, the
   KISS2 FSM synthesis agrees with the transition table, and the
   synthetic suite is deterministic. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module Rng = Util.Rng

(* Evaluate a circuit on an integer-coded input assignment (LSB-first
   helper for the arithmetic circuits). *)
let eval c (inputs : bool array) =
  let v = Goodsim.eval_scalar c inputs in
  Array.map (fun o -> v.(o)) (Circuit.outputs c)

let bits_of n width = Array.init width (fun i -> (n lsr i) land 1 = 1)
let int_of_bits bs =
  fst (Array.fold_left (fun (acc, p) b -> ((if b then acc lor (1 lsl p) else acc), p + 1)) (0, 0) bs)

(* --- arithmetic library ------------------------------------------- *)

let full_adder_truth () =
  let c = Library.full_adder () in
  for v = 0 to 7 do
    let a = v land 1 = 1 and b = v land 2 = 2 and cin = v land 4 = 4 in
    let outs = eval c [| a; b; cin |] in
    let expect = (if a then 1 else 0) + (if b then 1 else 0) + if cin then 1 else 0 in
    check Alcotest.bool "sum" (expect land 1 = 1) outs.(0);
    check Alcotest.bool "cout" (expect >= 2) outs.(1)
  done

let ripple_adder_adds =
  QCheck.Test.make ~name:"ripple adder computes a + b + cin" ~count:200
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
  @@ fun (a, b, cin) ->
  let w = 8 in
  let c = Library.ripple_adder ~width:w in
  let inputs = Array.concat [ bits_of a w; bits_of b w; [| cin |] ] in
  let outs = eval c inputs in
  int_of_bits outs = a + b + if cin then 1 else 0

let multiplier_multiplies =
  QCheck.Test.make ~name:"array multiplier computes a * b" ~count:100
    QCheck.(pair (int_bound 15) (int_bound 15))
  @@ fun (a, b) ->
  let w = 4 in
  let c = Library.multiplier ~width:w in
  let outs = eval c (Array.append (bits_of a w) (bits_of b w)) in
  int_of_bits outs = a * b

let mux_selects =
  QCheck.Test.make ~name:"mux tree selects the addressed data input" ~count:100
    QCheck.(pair (int_bound 255) (int_bound 7))
  @@ fun (data, sel) ->
  let s = 3 in
  let c = Library.mux_tree ~selects:s in
  let data_bits = bits_of data (1 lsl s) in
  (* Select lines: s0 is the MSB of the index. *)
  let sel_bits = Array.init s (fun i -> (sel lsr (s - 1 - i)) land 1 = 1) in
  let outs = eval c (Array.append data_bits sel_bits) in
  outs.(0) = data_bits.(sel)

let parity_tree_parity =
  QCheck.Test.make ~name:"parity tree computes odd parity" ~count:100 (QCheck.int_bound 127)
  @@ fun v ->
  let w = 7 in
  let c = Library.parity_tree ~width:w in
  let bits = bits_of v w in
  let outs = eval c bits in
  outs.(0) = (Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits land 1 = 1)

let comparator_compares =
  QCheck.Test.make ~name:"comparator orders unsigned operands" ~count:200
    QCheck.(pair (int_bound 31) (int_bound 31))
  @@ fun (a, b) ->
  let w = 5 in
  let c = Library.comparator ~width:w in
  let outs = eval c (Array.append (bits_of a w) (bits_of b w)) in
  outs.(0) = (a = b) && outs.(1) = (a < b) && outs.(2) = (a > b)

let decoder_one_hot =
  QCheck.Test.make ~name:"decoder raises exactly the addressed output" ~count:50
    (QCheck.int_bound 15)
  @@ fun v ->
  let w = 4 in
  let c = Library.decoder ~width:w in
  let outs = eval c (bits_of v w) in
  Array.length outs = 16 && Array.for_all2 ( = ) outs (Array.init 16 (fun i -> i = v))

let alu_ops =
  QCheck.Test.make ~name:"ALU implements and/or/xor/add" ~count:200
    QCheck.(quad (int_bound 3) (int_bound 15) (int_bound 15) bool)
  @@ fun (op, a, b, cin) ->
  let w = 4 in
  let c = Library.alu ~width:w in
  let inputs =
    Array.concat [ [| op land 2 = 2; op land 1 = 1 |]; bits_of a w; bits_of b w; [| cin |] ]
  in
  let outs = eval c inputs in
  let r = int_of_bits (Array.sub outs 0 w) and cout = outs.(w) in
  match op with
  | 0 -> r = a land b && not cout
  | 1 -> r = a lor b && not cout
  | 2 -> r = a lxor b && not cout
  | _ ->
      let sum = a + b + if cin then 1 else 0 in
      r = sum land 15 && cout = (sum >= 16)

let c17_is_c17 () =
  let c = Library.c17 () in
  check Alcotest.int "5 inputs" 5 (Array.length (Circuit.inputs c));
  check Alcotest.int "2 outputs" 2 (Array.length (Circuit.outputs c));
  check Alcotest.int "6 gates" 6 (Circuit.gate_count c);
  Circuit.iter_nodes c (fun n ->
      match Circuit.kind c n with
      | Gate.Input | Gate.Nand -> ()
      | k -> Alcotest.failf "unexpected %s in c17" (Gate.to_string k))


let cla_matches_ripple =
  QCheck.Test.make ~name:"carry-lookahead adder = ripple adder = arithmetic" ~count:200
    QCheck.(triple (int_bound 1023) (int_bound 1023) bool)
  @@ fun (a, b, cin) ->
  let w = 10 in
  let c = Library.carry_lookahead_adder ~width:w in
  let inputs = Array.concat [ bits_of a w; bits_of b w; [| cin |] ] in
  let outs = eval c inputs in
  int_of_bits outs = a + b + if cin then 1 else 0

let barrel_rotates =
  QCheck.Test.make ~name:"barrel shifter rotates left" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 7))
  @@ fun (data, sh) ->
  let w = 8 in
  let c = Library.barrel_shifter ~width:w in
  let sel = Array.init 3 (fun i -> (sh lsr i) land 1 = 1) in
  let outs = eval c (Array.append (bits_of data w) sel) in
  let expect = ((data lsl sh) lor (data lsr (w - sh))) land 255 in
  (* sh = 0 shifts by w in the expression above; normalise *)
  let expect = if sh = 0 then data else expect in
  int_of_bits outs = expect

(* --- two-level minimisation --------------------------------------- *)

let on_set_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    list_size (int_range 0 (1 lsl n)) (int_bound ((1 lsl n) - 1)) >>= fun on ->
    return (n, List.sort_uniq compare on))

let cover_is_exact =
  QCheck.Test.make ~name:"Twolevel.cover covers the on-set and nothing else" ~count:300
    (QCheck.make on_set_gen)
  @@ fun (n, on_set) ->
  let cubes = Twolevel.cover ~n ~on_set in
  let covered m = List.exists (fun c -> Twolevel.cube_covers c m) cubes in
  List.for_all covered on_set
  && List.for_all
       (fun m -> List.mem m on_set || not (covered m))
       (List.init (1 lsl n) Fun.id)

let primes_cover_minterms =
  QCheck.Test.make ~name:"every on-set minterm is inside some prime" ~count:200
    (QCheck.make on_set_gen)
  @@ fun (n, on_set) ->
  let ps = Twolevel.primes ~n ~on_set in
  List.for_all (fun m -> List.exists (fun c -> Twolevel.cube_covers c m) ps) on_set

let synthesize_matches_truth_table =
  QCheck.Test.make ~name:"synthesised SOP equals its on-set" ~count:100
    (QCheck.make on_set_gen)
  @@ fun (n, on_set) ->
  let names = Array.init n (fun i -> Printf.sprintf "x%d" i) in
  let c = Twolevel.synthesize ~name:"sop" ~n_inputs:n ~input_names:names [ ("f", on_set) ] in
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let inputs = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    let out = (eval c inputs).(0) in
    if out <> List.mem m on_set then ok := false
  done;
  !ok

let qm_classic_example () =
  (* f(a,b,c) = on {0,1,2,5,6,7} — a classic with two shared cube
     choices; just verify exact coverage. *)
  let on_set = [ 0; 1; 2; 5; 6; 7 ] in
  let cubes = Twolevel.cover ~n:3 ~on_set in
  let covered m = List.exists (fun c -> Twolevel.cube_covers c m) cubes in
  List.iter (fun m -> check Alcotest.bool (string_of_int m) (List.mem m on_set) (covered m))
    (List.init 8 Fun.id)

(* --- KISS2 / lion --------------------------------------------------- *)

let lion_parses () =
  let fsm = Kiss.lion () in
  check Alcotest.int "inputs" 2 fsm.Kiss.n_inputs;
  check Alcotest.int "outputs" 1 fsm.Kiss.n_outputs;
  check Alcotest.int "states" 4 (Array.length fsm.Kiss.states);
  check Alcotest.int "state bits" 2 (Kiss.state_bits fsm);
  check Alcotest.int "transitions" 11 (Array.length fsm.Kiss.transitions)

let lion_comb_interface () =
  let c = Kiss.to_combinational (Kiss.lion ()) in
  (* 2 FSM inputs + 2 state bits in; 1 output + 2 next-state out. *)
  check Alcotest.int "4 inputs" 4 (Array.length (Circuit.inputs c));
  check Alcotest.int "3 outputs" 3 (Array.length (Circuit.outputs c))

let kiss_parse_error () =
  check Alcotest.bool "missing .i" true
    (try
       ignore (Kiss.parse_string ".o 1\n00 a b 0\n");
       false
     with Util.Diagnostics.Failed _ -> true)

let lion_sequential_scan_roundtrip () =
  (* Scanning the sequential lion recovers a circuit with the same
     interface as the direct combinational synthesis, and the two
     compute the same functions. *)
  let fsm = Kiss.lion () in
  let direct = Kiss.to_combinational fsm in
  let scanned, _ = Scan.combinational (Kiss.to_sequential fsm) in
  check Alcotest.int "same input count" (Array.length (Circuit.inputs direct))
    (Array.length (Circuit.inputs scanned));
  (* Compare output values over all 16 assignments, matching outputs by
     role: out0 first, then next-state bits. *)
  for m = 0 to 15 do
    let inputs = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
    let vd = Goodsim.eval_scalar direct inputs in
    let vs = Goodsim.eval_scalar scanned inputs in
    let od = Array.map (fun o -> vd.(o)) (Circuit.outputs direct) in
    let os = Array.map (fun o -> vs.(o)) (Circuit.outputs scanned) in
    check Alcotest.(array bool) (Printf.sprintf "outputs at %d" m) od os
  done

(* Direct semantic check of the synthesis against the FSM's transition
   table: for every (input, state) the circuit's next state and output
   equal the table lookup. *)
let lion_matches_transition_table () =
  let fsm = Kiss.lion () in
  let c = Kiss.to_combinational fsm in
  let in0 = Circuit.find_exn c "in0" in
  ignore in0;
  let idx name = Circuit.find_exn c name in
  let out0 = idx "out0" and nst0 = idx "nst0" and nst1 = idx "nst1" in
  let states = fsm.Kiss.states in
  Array.iter
    (fun (inp, cur, nxt, out) ->
      if not (String.contains inp '-') then begin
        let cur_code = ref 0 in
        Array.iteri (fun i s -> if s = cur then cur_code := i) states;
        let nxt_code = ref 0 in
        Array.iteri (fun i s -> if s = nxt then nxt_code := i) states;
        (* Inputs: in0 = leftmost pattern char, then state bits LSB
           first. *)
        let vals = Array.make 4 false in
        String.iteri (fun i ch -> vals.(i) <- ch = '1') inp;
        vals.(2) <- !cur_code land 1 = 1;
        vals.(3) <- !cur_code land 2 = 2;
        let v = Goodsim.eval_scalar c vals in
        check Alcotest.bool
          (Printf.sprintf "out for %s %s" inp cur)
          (out.[0] = '1') v.(out0);
        check Alcotest.int
          (Printf.sprintf "next for %s %s" inp cur)
          !nxt_code
          ((if v.(nst0) then 1 else 0) lor if v.(nst1) then 2 else 0)
      end)
    fsm.Kiss.transitions


let lion_sequential_matches_fsm_semantics () =
  (* Drive the synthesised sequential circuit and the transition table
     with the same random input sequence; outputs must agree cycle by
     cycle. *)
  let fsm = Kiss.lion () in
  let circuit = Kiss.to_sequential fsm in
  let sim = Seqsim.create circuit in
  let rng = Rng.create 77 in
  let seq = List.init 200 (fun _ -> Array.init 2 (fun _ -> Rng.bool rng)) in
  let expect = Kiss.simulate fsm seq in
  let got = Seqsim.run sim seq in
  List.iteri
    (fun i (e, g) ->
      check Alcotest.(array bool) (Printf.sprintf "cycle %d" i) e g)
    (List.combine expect got)

let seqsim_toggle () =
  (* q = DFF(NOT q): the output alternates every cycle. *)
  let b = Circuit.Builder.create () in
  let q = Circuit.Builder.dff b "q" in
  let n = Circuit.Builder.gate b Gate.Not "n" [ q ] in
  Circuit.Builder.connect_dff b q ~fanin:n;
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  (* The circuit has no PIs; feed empty vectors.  Builder requires at
     least one input?  No: inputs may be absent. *)
  let sim = Seqsim.create c in
  let outs = Seqsim.run sim (List.init 6 (fun _ -> [||])) in
  check
    Alcotest.(list (array bool))
    "alternating q"
    [ [| false |]; [| true |]; [| false |]; [| true |]; [| false |]; [| true |] ]
    outs


let sequence_detector_detects () =
  (* The synthesised sequential detector flags every (overlapping)
     occurrence of the pattern in a random bit stream. *)
  let pattern = "1011" in
  let fsm = Kiss.sequence_detector ~pattern in
  check Alcotest.int "states" 4 (Array.length fsm.Kiss.states);
  let circuit = Kiss.to_sequential fsm in
  let sim = Seqsim.create circuit in
  let rng = Rng.create 88 in
  let stream = List.init 300 (fun _ -> Rng.bool rng) in
  let outs = Seqsim.run sim (List.map (fun b -> [| b |]) stream) in
  (* Reference: sliding window over the stream. *)
  let arr = Array.of_list stream in
  let k = String.length pattern in
  List.iteri
    (fun i out ->
      let expect =
        i + 1 >= k
        && (let ok = ref true in
            for j = 0 to k - 1 do
              if arr.(i + 1 - k + j) <> (pattern.[j] = '1') then ok := false
            done;
            !ok)
      in
      check Alcotest.bool (Printf.sprintf "cycle %d" i) expect out.(0))
    outs

let sequence_detector_atpg () =
  (* The full-scan view of the detector goes through the whole paper
     pipeline. *)
  let circuit = Kiss.to_sequential (Kiss.sequence_detector ~pattern:"1101") in
  let setup = Pipeline.prepare (Run_config.with_seed 3 Run_config.default) circuit in
  let run = Pipeline.run_order setup Ordering.Dynm0 in
  check (Alcotest.float 0.0001) "full coverage" 1.0
    (Engine.coverage setup.Pipeline.faults run.Pipeline.engine)


let scan_chain_serial_application () =
  (* Full physical check: vectors computed on the combinational core,
     applied serially through the inserted scan chain, must reproduce
     the core's outputs and next-state exactly. *)
  let fsm = Kiss.lion () in
  let seq = Kiss.to_sequential fsm in
  let comb, _ = Scan.combinational seq in
  let scanned, chain = Scan.insert_chain seq in
  check Alcotest.int "two cells" 2 (Array.length chain.Scan.cells);
  check Alcotest.int "cycles per test" 5 (Testbench.cycles_per_test chain);
  let sim = Seqsim.create scanned in
  let outs_comb = Circuit.outputs comb in
  for m = 0 to 15 do
    let comb_inputs = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
    let r = Testbench.apply_combinational_test sim chain ~comb_inputs ~n_original_pis:2 in
    (* Expected from the combinational core: out0, then nst bits. *)
    let v = Goodsim.eval_scalar comb comb_inputs in
    let expect = Array.map (fun o -> v.(o)) outs_comb in
    check Alcotest.bool (Printf.sprintf "po at %d" m) expect.(0) r.Testbench.outputs.(0);
    check Alcotest.bool (Printf.sprintf "nst0 at %d" m) expect.(1) r.Testbench.captured.(0);
    check Alcotest.bool (Printf.sprintf "nst1 at %d" m) expect.(2) r.Testbench.captured.(1)
  done

let scan_chain_on_detector () =
  (* Same check on the sequence detector, with random vectors. *)
  let seq = Kiss.to_sequential (Kiss.sequence_detector ~pattern:"1011") in
  let comb, _ = Scan.combinational seq in
  let scanned, chain = Scan.insert_chain seq in
  let sim = Seqsim.create scanned in
  let n_inputs_comb = Array.length (Circuit.inputs comb) in
  let rng = Rng.create 123 in
  for _ = 1 to 40 do
    let comb_inputs = Array.init n_inputs_comb (fun _ -> Rng.bool rng) in
    let r = Testbench.apply_combinational_test sim chain ~comb_inputs ~n_original_pis:1 in
    let v = Goodsim.eval_scalar comb comb_inputs in
    let expect = Array.map (fun o -> v.(o)) (Circuit.outputs comb) in
    check Alcotest.bool "out" expect.(0) r.Testbench.outputs.(0);
    Array.iteri
      (fun i cap -> check Alcotest.bool (Printf.sprintf "nst%d" i) expect.(i + 1) cap)
      r.Testbench.captured
  done

(* --- suite ---------------------------------------------------------- *)

let suite_deterministic () =
  (* Two fresh generations of the first entry's raw logic. *)
  let e = List.hd Suite.small in
  let a = Generate.random ~seed:e.Suite.seed ~name:e.Suite.name
      (Generate.profile ~outputs:e.Suite.pos ~pis:e.Suite.pis ~gates:e.Suite.gates ())
  in
  let b = Generate.random ~seed:e.Suite.seed ~name:e.Suite.name
      (Generate.profile ~outputs:e.Suite.pos ~pis:e.Suite.pis ~gates:e.Suite.gates ())
  in
  check Alcotest.string "same netlist" (Bench_format.to_string a) (Bench_format.to_string b)

(* Every embedded netlist parses back to its own text: the text is in
   [Bench_format.to_string]'s canonical form. *)
let suite_embedded_roundtrip () =
  List.iter
    (fun (e : Suite.entry) ->
      let c = Suite.build_by_name e.Suite.name in
      check Alcotest.string e.Suite.name (Suite.netlist e) (Bench_format.to_string c);
      check Alcotest.string (e.Suite.name ^ " title") e.Suite.name (Circuit.title c))
    Suite.entries

(* The embedded text is the recipe's output: regenerate the two
   quickest circuits and compare byte for byte and by digest (the
   bench [suite] stage does all fourteen). *)
let suite_regenerate_matches_embedded () =
  List.iter
    (fun name ->
      let e = Option.get (Suite.find name) in
      let fresh = Suite.regenerate e in
      check Alcotest.string (name ^ " text") (Suite.netlist e) (Bench_format.to_string fresh);
      check Alcotest.string (name ^ " digest") (Generate.digest (Suite.build e))
        (Generate.digest fresh))
    [ "syn208"; "syn298" ]

(* Builds share no state: names resolved on several domains at once
   give the circuits a serial resolution gives. *)
let suite_concurrent_builds_agree () =
  let names = [| "syn208"; "syn298"; "syn344"; "c17"; "syn208"; "lion"; "syn420"; "syn298" |] in
  let serial = Array.map (fun n -> Generate.digest (Suite.build_by_name n)) names in
  let concurrent = Array.make (Array.length names) "" in
  Util.Parallel.run
    (Array.mapi
       (fun i n () -> concurrent.(i) <- Generate.digest (Suite.build_by_name n))
       names);
  Array.iteri (fun i d -> check Alcotest.string names.(i) d concurrent.(i)) serial

let suite_entry_lookup () =
  check Alcotest.bool "finds syn420" true (Suite.find "syn420" <> None);
  check Alcotest.bool "rejects junk" true (Suite.find "junk" = None);
  check Alcotest.int "fourteen entries" 14 (List.length Suite.entries);
  check Alcotest.int "twelve small" 12 (List.length Suite.small)

(* --- parameterised generator family --------------------------------- *)

let gen_spec_roundtrip () =
  let spec = Generate.spec_of_string "gates=2k,reconv=0.4,seed=5,arity=3" in
  check Alcotest.int "gates" 2000 spec.Generate.s_gates;
  check Alcotest.int "seed" 5 spec.Generate.s_seed;
  check Alcotest.int "arity" 3 spec.Generate.s_max_arity;
  check (Alcotest.float 1e-9) "reconv" 0.4 spec.Generate.s_reconvergence;
  check Alcotest.bool "round-trips" true
    (Generate.spec_of_string (Generate.spec_to_string spec) = spec)

let gen_spec_rejects () =
  let rejects s =
    match Generate.spec_of_string s with
    | exception Util.Diagnostics.Failed _ -> true
    | _ -> false
  in
  check Alcotest.bool "unknown key" true (rejects "gatez=100");
  check Alcotest.bool "malformed value" true (rejects "gates=ten");
  check Alcotest.bool "probability range" true (rejects "reconv=1.5");
  check Alcotest.bool "arity range" true (rejects "arity=1");
  check Alcotest.bool "missing =" true (rejects "gates")

let gen_build_deterministic () =
  let spec = Generate.spec_of_string "gates=1500,reconv=0.4,seed=5" in
  let a = Generate.build spec and b = Generate.build spec in
  check Alcotest.string "same digest" (Generate.digest a) (Generate.digest b);
  check Alcotest.string "same netlist" (Bench_format.to_string a)
    (Bench_format.to_string b);
  (* The digest is structural: a renamed build hashes the same. *)
  check Alcotest.string "digest ignores names" (Generate.digest a)
    (Generate.digest (Generate.build ~name:"other" spec));
  check Alcotest.bool "different seed, different structure" true
    (Generate.digest (Generate.build { spec with Generate.s_seed = 6 })
    <> Generate.digest a)

let gen_build_shape () =
  let spec = Generate.spec_of_string "gates=1200,pis=32,outputs=8,seed=3" in
  let c = Generate.build spec in
  check Alcotest.int "gates" 1200 (Circuit.gate_count c);
  check Alcotest.int "pis" 32 (Array.length (Circuit.inputs c));
  check Alcotest.bool "sink floor respected" true
    (Array.length (Circuit.outputs c) >= 8);
  check Alcotest.bool "multi-level" true (Circuit.depth c > 1)

let suite_matches_paper_inputs () =
  (* The "inp" column of Table 4. *)
  let expect =
    [ (208, 19); (298, 17); (344, 24); (382, 24); (400, 24); (420, 35); (510, 25);
      (526, 24); (641, 54); (820, 23); (953, 45); (1196, 32); (5378, 214); (13207, 699) ]
  in
  List.iter2
    (fun (n, pis) (e : Suite.entry) ->
      check Alcotest.string "name" (Printf.sprintf "syn%d" n) e.Suite.name;
      check Alcotest.int "pis" pis e.Suite.pis)
    expect Suite.entries

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "circuits"
    [
      ( "library",
        [
          Alcotest.test_case "full adder" `Quick full_adder_truth;
          Alcotest.test_case "c17 shape" `Quick c17_is_c17;
          qtest ripple_adder_adds;
          qtest multiplier_multiplies;
          qtest mux_selects;
          qtest parity_tree_parity;
          qtest comparator_compares;
          qtest decoder_one_hot;
          qtest alu_ops;
          qtest cla_matches_ripple;
          qtest barrel_rotates;
        ] );
      ( "twolevel",
        [
          Alcotest.test_case "classic example" `Quick qm_classic_example;
          qtest cover_is_exact;
          qtest primes_cover_minterms;
          qtest synthesize_matches_truth_table;
        ] );
      ( "kiss",
        [
          Alcotest.test_case "lion parses" `Quick lion_parses;
          Alcotest.test_case "lion interface" `Quick lion_comb_interface;
          Alcotest.test_case "parse error" `Quick kiss_parse_error;
          Alcotest.test_case "scan roundtrip" `Quick lion_sequential_scan_roundtrip;
          Alcotest.test_case "transition table" `Quick lion_matches_transition_table;
          Alcotest.test_case "sequential semantics" `Quick lion_sequential_matches_fsm_semantics;
          Alcotest.test_case "seqsim toggle" `Quick seqsim_toggle;
          Alcotest.test_case "sequence detector" `Quick sequence_detector_detects;
          Alcotest.test_case "sequence detector atpg" `Quick sequence_detector_atpg;
          Alcotest.test_case "scan chain serial" `Quick scan_chain_serial_application;
          Alcotest.test_case "scan chain detector" `Quick scan_chain_on_detector;
        ] );
      ( "suite",
        [
          Alcotest.test_case "deterministic" `Quick suite_deterministic;
          Alcotest.test_case "entry lookup" `Quick suite_entry_lookup;
          Alcotest.test_case "paper input counts" `Quick suite_matches_paper_inputs;
          Alcotest.test_case "embedded netlists round-trip" `Quick suite_embedded_roundtrip;
          Alcotest.test_case "regenerate = embedded" `Quick suite_regenerate_matches_embedded;
          Alcotest.test_case "concurrent builds agree" `Quick suite_concurrent_builds_agree;
        ] );
      ( "generate",
        [
          Alcotest.test_case "spec roundtrip" `Quick gen_spec_roundtrip;
          Alcotest.test_case "spec rejects" `Quick gen_spec_rejects;
          Alcotest.test_case "build deterministic" `Quick gen_build_deterministic;
          Alcotest.test_case "build shape" `Quick gen_build_shape;
        ] );
    ]
