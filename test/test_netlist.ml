(* Tests for the netlist layer: builder invariants, levelisation,
   .bench round-trips, the full-scan transform, rewriting, and
   validation. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module B = Circuit.Builder

let tiny () =
  (* y = NAND(a, b); z = NOT(y) observed. *)
  let b = B.create ~title:"tiny" () in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let y = B.gate b Gate.Nand "y" [ a; bb ] in
  let z = B.gate b Gate.Not "z" [ y ] in
  B.mark_output b z;
  B.finish b

(* --- builder ------------------------------------------------------ *)

let builder_basics () =
  let c = tiny () in
  check Alcotest.int "nodes" 4 (Circuit.node_count c);
  check Alcotest.int "gate count" 2 (Circuit.gate_count c);
  check Alcotest.int "pins" 3 (Circuit.pin_count c);
  check Alcotest.int "depth" 2 (Circuit.depth c);
  check Alcotest.(array int) "inputs" [| 0; 1 |] (Circuit.inputs c);
  check Alcotest.(array int) "outputs" [| 3 |] (Circuit.outputs c);
  check Alcotest.bool "z is output" true (Circuit.is_output c 3);
  check Alcotest.bool "y is not" false (Circuit.is_output c 2);
  check Alcotest.(option int) "find y" (Some 2) (Circuit.find c "y");
  check Alcotest.(option int) "find nothing" None (Circuit.find c "nope")

let builder_duplicate_name () =
  let b = B.create () in
  let _ = B.input b "a" in
  Alcotest.check_raises "dup" (Invalid_argument "Circuit.Builder: duplicate node name \"a\"")
    (fun () -> ignore (B.input b "a"))

let builder_bad_arity () =
  let b = B.create () in
  let a = B.input b "a" in
  check Alcotest.bool "not with 2 fanins rejected" true
    (try
       ignore (B.gate b Gate.Not "n" [ a; a ]);
       false
     with Invalid_argument _ -> true)

let builder_no_outputs () =
  let b = B.create () in
  let _ = B.input b "a" in
  check Alcotest.bool "finish without outputs rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

let builder_unconnected_dff () =
  let b = B.create () in
  let d = B.dff b "q" in
  B.mark_output b d;
  check Alcotest.bool "finish with dangling DFF rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

let builder_dff_feedback () =
  (* q = DFF(NOT q): a toggle loop must build fine. *)
  let b = B.create () in
  let q = B.dff b "q" in
  let n = B.gate b Gate.Not "n" [ q ] in
  B.connect_dff b q ~fanin:n;
  B.mark_output b n;
  let c = B.finish b in
  check Alcotest.bool "has state" true (Circuit.has_state c)

let fanouts_deduped () =
  (* One signal used on two pins of the same gate is one fanout entry. *)
  let b = B.create () in
  let a = B.input b "a" in
  let g = B.gate b Gate.And "g" [ a; a ] in
  B.mark_output b g;
  let c = B.finish b in
  check Alcotest.int "single fanout entry" 1 (Circuit.fanout_count c 0)

(* --- random circuits: structural properties ----------------------- *)

let random_circuit_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun pis ->
    int_range 3 40 >>= fun gates ->
    int_bound 10_000 >>= fun seed ->
    return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ())))

let arb_circuit = QCheck.make random_circuit_gen

let topo_respects_fanins =
  QCheck.Test.make ~name:"topological order puts fanins first" ~count:100 arb_circuit
  @@ fun c ->
  let pos = Array.make (Circuit.node_count c) 0 in
  Array.iteri (fun p n -> pos.(n) <- p) (Circuit.topological_order c);
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      Array.iter (fun f -> if pos.(f) >= pos.(n) then ok := false) (Circuit.fanins c n));
  !ok

let levels_strictly_increase =
  QCheck.Test.make ~name:"level(node) > level(fanin)" ~count:100 arb_circuit
  @@ fun c ->
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      Array.iter
        (fun f -> if Circuit.level c f >= Circuit.level c n then ok := false)
        (Circuit.fanins c n));
  !ok

let fanout_inverse_of_fanin =
  QCheck.Test.make ~name:"fanouts are the inverse of fanins" ~count:100 arb_circuit
  @@ fun c ->
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      Array.iter
        (fun s ->
          if not (Array.exists (fun f -> f = n) (Circuit.fanins c s)) then ok := false)
        (Circuit.fanouts c n));
  !ok

let generator_no_dead_nodes =
  QCheck.Test.make ~name:"generated circuits have no dead logic" ~count:50 arb_circuit
  @@ fun c -> Array.length (Validate.dead_nodes c) = 0

(* --- fanout-free regions ------------------------------------------- *)

let ffr_stems_are_stems =
  QCheck.Test.make ~name:"Ffr stems are outputs or fanout <> 1" ~count:100 arb_circuit
  @@ fun c ->
  let ffr = Ffr.compute c in
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      let stemness = Circuit.is_output c n || Circuit.fanout_count c n <> 1 in
      if Ffr.is_stem ffr n <> stemness then ok := false);
  Array.for_all (Ffr.is_stem ffr) (Ffr.stems ffr) && !ok

let ffr_walk_reaches_stem =
  QCheck.Test.make ~name:"unique-fanout walk from any node lands on its stem" ~count:100
    arb_circuit
  @@ fun c ->
  let ffr = Ffr.compute c in
  let ok = ref true in
  Circuit.iter_nodes c (fun n ->
      let x = ref n in
      while not (Ffr.is_stem ffr !x) do
        x := (Circuit.fanouts c !x).(0)
      done;
      if Ffr.stem_of ffr n <> !x then ok := false);
  !ok

let ffr_regions_partition =
  QCheck.Test.make ~name:"Ffr regions partition the nodes" ~count:100 arb_circuit
  @@ fun c ->
  let ffr = Ffr.compute c in
  let seen = Array.make (Circuit.node_count c) false in
  Array.iter
    (fun s ->
      Array.iter
        (fun n ->
          if seen.(n) || Ffr.stem_of ffr n <> s then failwith "overlap";
          seen.(n) <- true)
        (Ffr.members ffr s))
    (Ffr.stems ffr);
  Array.length (Ffr.stems ffr) = Ffr.region_count ffr
  && Array.for_all Fun.id seen
  && Ffr.average_size ffr
     = float_of_int (Circuit.node_count c) /. float_of_int (Ffr.region_count ffr)

let generator_deterministic () =
  let a = Generate.random ~seed:11 ~name:"x" (Generate.profile ~pis:5 ~gates:30 ()) in
  let b = Generate.random ~seed:11 ~name:"x" (Generate.profile ~pis:5 ~gates:30 ()) in
  check Alcotest.string "same bench text" (Bench_format.to_string a) (Bench_format.to_string b)

(* --- bench format ------------------------------------------------- *)

let structurally_equal a b =
  Circuit.node_count a = Circuit.node_count b
  && Array.for_all2 ( = ) (Circuit.inputs a) (Circuit.inputs b)
  && Array.for_all2 ( = ) (Circuit.outputs a) (Circuit.outputs b)
  &&
  let ok = ref true in
  Circuit.iter_nodes a (fun i ->
      if
        Circuit.kind a i <> Circuit.kind b i
        || Circuit.name a i <> Circuit.name b i
        || Circuit.fanins a i <> Circuit.fanins b i
      then ok := false);
  !ok

let bench_roundtrip =
  QCheck.Test.make ~name:".bench round-trip is structurally identity" ~count:50 arb_circuit
  @@ fun c -> structurally_equal c (Bench_format.parse_string (Bench_format.to_string c))

let bench_parses_forward_refs () =
  let c =
    Bench_format.parse_string
      "INPUT(a)\nOUTPUT(z)\nz = AND(y, a)\ny = NOT(a)\n"
  in
  check Alcotest.int "nodes" 3 (Circuit.node_count c);
  check Alcotest.bool "z output" true (Circuit.is_output c (Circuit.find_exn c "z"))

let bench_rejects_undefined () =
  check Alcotest.bool "undefined signal" true
    (try
       ignore (Bench_format.parse_string "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n");
       false
     with Util.Diagnostics.Failed _ -> true)

let bench_rejects_cycle () =
  check Alcotest.bool "combinational cycle" true
    (try
       ignore
         (Bench_format.parse_string "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\n");
       false
     with Util.Diagnostics.Failed _ -> true)

let bench_dff_loop () =
  let c =
    Bench_format.parse_string "INPUT(a)\nOUTPUT(o)\nq = DFF(n)\nn = XOR(a, q)\no = BUF(n)\n"
  in
  check Alcotest.bool "sequential" true (Circuit.has_state c)

let bench_comments_and_blanks () =
  let c = Bench_format.parse_string "# hi\n\nINPUT(a)\n  OUTPUT(a)  # trailing\n" in
  check Alcotest.int "single node" 1 (Circuit.node_count c)

(* --- typed parse errors and recovery ------------------------------ *)

module D = Util.Diagnostics

(* Run a strict parse that must fail and hand back the diagnostic. *)
let diag_of f =
  match f () with
  | exception D.Failed d -> d
  | _ -> Alcotest.fail "expected Diagnostics.Failed"

let bench_diag_unknown_gate () =
  let d =
    diag_of (fun () ->
        Bench_format.parse_string ~file:"t.bench" "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
  in
  check Alcotest.bool "code" true (d.D.code = D.Unknown_gate);
  check Alcotest.int "line" 3 d.D.loc.D.line;
  check Alcotest.(option string) "file label" (Some "t.bench") d.D.loc.D.file

let bench_diag_syntax_line () =
  let d =
    diag_of (fun () -> Bench_format.parse_string "INPUT(a)\nOUTPUT(z)\nz = AND(a\n")
  in
  check Alcotest.bool "syntax code" true (d.D.code = D.Syntax);
  check Alcotest.int "line of truncated stmt" 3 d.D.loc.D.line

let bench_diag_duplicate () =
  let d =
    diag_of (fun () ->
        Bench_format.parse_string "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n")
  in
  check Alcotest.bool "duplicate code" true (d.D.code = D.Duplicate_def);
  check Alcotest.int "line of second def" 4 d.D.loc.D.line

let bench_diag_empty () =
  let d = diag_of (fun () -> Bench_format.parse_string "# only a comment\n") in
  check Alcotest.bool "empty code" true (d.D.code = D.Empty_input)

let bench_recover_salvages () =
  let c, diags =
    Bench_format.parse_string_recover ~file:"t.bench"
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\nz = FROB(a, b)\nz = AND(a, b)\nw = OR(a, ghost)\n"
  in
  let c = Option.get c in
  (* The FROB def is skipped, so the later duplicate "z" survives as the
     only definition; "w" is dropped with its undefined fanin. *)
  check Alcotest.int "salvaged gates" 3 (Circuit.node_count c);
  check Alcotest.bool "z is an AND" true
    (Circuit.kind c (Circuit.find_exn c "z") = Gate.And);
  check Alcotest.int "three diagnostics" 3 (List.length diags);
  check Alcotest.(list int) "source lines" [ 5; 7; 4 ]
    (List.map (fun d -> d.D.loc.D.line) diags);
  check Alcotest.bool "all carry the file label" true
    (List.for_all (fun d -> d.D.loc.D.file = Some "t.bench") diags)

let bench_recover_cycle_dropped () =
  let c, diags =
    Bench_format.parse_string_recover
      "INPUT(a)\nOUTPUT(z)\nOUTPUT(x)\nz = NOT(a)\nx = AND(a, y)\ny = AND(a, x)\n"
  in
  let c = Option.get c in
  check Alcotest.bool "cycle members gone" true (Circuit.find c "x" = None);
  check Alcotest.bool "clean part kept" true (Circuit.find c "z" <> None);
  check Alcotest.bool "cycle reported" true
    (List.exists (fun d -> d.D.code = D.Combinational_cycle) diags)

let bench_recover_nothing_left () =
  let c, diags = Bench_format.parse_string_recover "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n" in
  check Alcotest.bool "no circuit" true (c = None);
  check Alcotest.bool "reports why" true (List.exists (fun d -> d.D.code = D.No_outputs) diags)

let blif_diag_bad_cover () =
  let d =
    diag_of (fun () ->
        Blif_format.parse_string ~file:"t.blif"
          ".model m\n.inputs a b\n.outputs y\n.names a b y\n1X 1\n.end\n")
  in
  check Alcotest.bool "cover code" true (d.D.code = D.Bad_cover);
  check Alcotest.int "row line" 5 d.D.loc.D.line

let blif_diag_bad_directive () =
  let d =
    diag_of (fun () ->
        Blif_format.parse_string ".model m\n.inputs a\n.outputs y\n.frobnicate\n.names a y\n1 1\n.end\n")
  in
  check Alcotest.bool "directive code" true (d.D.code = D.Bad_directive);
  check Alcotest.int "directive line" 4 d.D.loc.D.line

let blif_recover_salvages () =
  let c, diags =
    Blif_format.parse_string_recover
      ".model m\n.inputs a b\n.outputs y z\n.names a b y\n1X 1\n11 1\n.names a z\n1 1\n.end\n"
  in
  let c = Option.get c in
  (* The bad row is skipped but the rest of that cover still parses;
     both outputs survive. *)
  check Alcotest.bool "y survives" true (Circuit.find c "y" <> None);
  check Alcotest.bool "z survives" true (Circuit.find c "z" <> None);
  check Alcotest.int "one diagnostic" 1 (List.length diags);
  check Alcotest.bool "it is the bad row" true
    ((List.hd diags).D.code = D.Bad_cover && (List.hd diags).D.loc.D.line = 5)

let blif_recover_drops_dependents () =
  let c, diags =
    Blif_format.parse_string_recover
      ".model m\n.inputs a\n.outputs y z\n.names ghost t\n1 1\n.names t y\n1 1\n.names a z\n1 1\n.end\n"
  in
  let c = Option.get c in
  (* t depends on an undefined signal, y depends on t: both drop, z stays. *)
  check Alcotest.bool "y dropped" true (Circuit.find c "y" = None);
  check Alcotest.bool "z kept" true (Circuit.find c "z" <> None);
  check Alcotest.bool "undefined-ref reported" true
    (List.exists (fun d -> d.D.code = D.Undefined_ref) diags)

(* --- scan --------------------------------------------------------- *)

let scan_converts_dffs () =
  let seq =
    Bench_format.parse_string "INPUT(a)\nOUTPUT(o)\nq = DFF(n)\nn = XOR(a, q)\no = AND(n, a)\n"
  in
  let comb, mapping = Scan.combinational seq in
  check Alcotest.bool "combinational" true (Scan.is_combinational comb);
  check Alcotest.int "one ppi" 1 (Array.length mapping.Scan.ppis);
  check Alcotest.int "one ppo" 1 (Array.length mapping.Scan.ppos);
  check Alcotest.int "two inputs now" 2 (Array.length (Circuit.inputs comb));
  (* The PPO drives the same function the DFF data pin saw: XOR(a, q). *)
  let _, ppo = mapping.Scan.ppos.(0) in
  check Alcotest.bool "ppo is the XOR" true (Circuit.kind comb ppo = Gate.Xor)

let scan_noop_on_combinational () =
  let c = Library.c17 () in
  let c', mapping = Scan.combinational c in
  check Alcotest.int "no ppis" 0 (Array.length mapping.Scan.ppis);
  check Alcotest.bool "structure preserved" true (structurally_equal c c')

(* --- rewrite ------------------------------------------------------ *)

(* Functional equivalence of two circuits with equal PI lists, checked
   on random vectors. *)
let equivalent_on_random ?(vectors = 256) a b =
  let n_inputs = Array.length (Circuit.inputs a) in
  if n_inputs <> Array.length (Circuit.inputs b) then false
  else begin
    let rng = Util.Rng.create 99 in
    let ok = ref true in
    for _ = 1 to vectors do
      let vec = Array.init n_inputs (fun _ -> Util.Rng.bool rng) in
      let va = Goodsim.eval_scalar a vec and vb = Goodsim.eval_scalar b vec in
      let oa = Array.map (fun o -> va.(o)) (Circuit.outputs a) in
      let ob = Array.map (fun o -> vb.(o)) (Circuit.outputs b) in
      (* Output merging may shrink the PO list; compare the common
         prefix values by name instead. *)
      ignore oa;
      ignore ob;
      Array.iter
        (fun o ->
          let name = Circuit.name a o in
          match Circuit.find b name with
          | Some o' -> if va.(o) <> vb.(o') then ok := false
          | None -> ())
        (Circuit.outputs a)
    done;
    !ok
  end

let simplify_preserves_function =
  QCheck.Test.make ~name:"Rewrite.simplify preserves the function" ~count:50 arb_circuit
  @@ fun c -> equivalent_on_random c (Rewrite.simplify c)

let rewrite_constant_folds () =
  (* AND(a, 0) must fold to constant 0 on the output. *)
  let b = B.create () in
  let a = B.input b "a" in
  let z = B.const b "zero" false in
  let g = B.gate b Gate.And "g" [ a; z ] in
  B.mark_output b g;
  let c = B.finish b in
  let c' = Rewrite.simplify c in
  let o = (Circuit.outputs c').(0) in
  check Alcotest.bool "output folded to const0" true (Circuit.kind c' o = Gate.Const0)

let rewrite_node_const () =
  (* Forcing the NAND output of tiny() to 1 turns z into constant 0. *)
  let c = tiny () in
  let y = Circuit.find_exn c "y" in
  let c' = Rewrite.apply c [ Rewrite.Node_const (y, true) ] in
  let o = (Circuit.outputs c').(0) in
  check Alcotest.bool "z constant" true (Circuit.kind c' o = Gate.Const0)

let rewrite_pin_const () =
  (* Tying one NAND pin to 1 leaves z = a. *)
  let c = tiny () in
  let y = Circuit.find_exn c "y" in
  let c' = Rewrite.apply c [ Rewrite.Pin_const { gate = y; pin = 1; value = true } ] in
  (* z = NOT (NAND (a, 1)) = a *)
  let vec_true = Goodsim.eval_scalar c' [| true; false |] in
  let vec_false = Goodsim.eval_scalar c' [| false; true |] in
  let o = (Circuit.outputs c').(0) in
  check Alcotest.bool "z follows a (true)" true vec_true.(o);
  check Alcotest.bool "z follows a (false)" false vec_false.(o)

let rewrite_xor_cancellation () =
  (* XOR(a, a) folds to 0. *)
  let b = B.create () in
  let a = B.input b "a" in
  let g = B.gate b Gate.Xor "g" [ a; a ] in
  B.mark_output b g;
  let c' = Rewrite.simplify (B.finish b) in
  let o = (Circuit.outputs c').(0) in
  check Alcotest.bool "xor(a,a) = 0" true (Circuit.kind c' o = Gate.Const0)

let rewrite_prunes_dead =
  QCheck.Test.make ~name:"rewrite output has no dead logic" ~count:50 arb_circuit
  @@ fun c -> Array.length (Validate.dead_nodes (Rewrite.simplify c)) = 0

(* --- BLIF ---------------------------------------------------------- *)

let blif_roundtrip_functional =
  QCheck.Test.make ~name:"BLIF round-trip preserves the function" ~count:40 arb_circuit
  @@ fun c -> equivalent_on_random c (Blif_format.parse_string (Blif_format.to_string c))

let blif_parses_basics () =
  let c =
    Blif_format.parse_string
      ".model demo\n.inputs a b c\n.outputs y z\n.names a b t\n11 1\n.names t c y\n1- 1\n-1 1\n.names a z\n0 1\n.end\n"
  in
  check Alcotest.int "inputs" 3 (Array.length (Circuit.inputs c));
  check Alcotest.int "outputs" 2 (Array.length (Circuit.outputs c));
  (* y = (a & b) | c; z = ~a *)
  let eval v =
    let r = Goodsim.eval_scalar c v in
    (r.(Circuit.find_exn c "y"), r.(Circuit.find_exn c "z"))
  in
  check Alcotest.(pair bool bool) "110" (true, false) (eval [| true; true; false |]);
  check Alcotest.(pair bool bool) "001" (true, true) (eval [| false; false; true |]);
  check Alcotest.(pair bool bool) "100" (false, false) (eval [| true; false; false |])

let blif_offset_cover () =
  (* Off-set rows: y = NOT (a & b). *)
  let c =
    Blif_format.parse_string ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n"
  in
  let eval v = (Goodsim.eval_scalar c v).(Circuit.find_exn c "y") in
  check Alcotest.bool "11 -> 0" false (eval [| true; true |]);
  check Alcotest.bool "10 -> 1" true (eval [| true; false |])

let blif_latch_roundtrip () =
  let seq =
    Bench_format.parse_string "INPUT(a)\nOUTPUT(o)\nq = DFF(n)\nn = XOR(a, q)\no = AND(n, a)\n"
  in
  let rt = Blif_format.parse_string (Blif_format.to_string seq) in
  check Alcotest.bool "still sequential" true (Circuit.has_state rt);
  (* Functional equivalence of the scanned views. *)
  let a, _ = Scan.combinational seq in
  let b, _ = Scan.combinational rt in
  check Alcotest.bool "scanned views equivalent" true (equivalent_on_random a b)

let blif_rejects_mixed_cover () =
  check Alcotest.bool "mixed rows rejected" true
    (try
       ignore
         (Blif_format.parse_string
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n");
       false
     with Util.Diagnostics.Failed _ -> true)

let blif_constants () =
  let c =
    Blif_format.parse_string
      ".model m\n.inputs a\n.outputs k0 k1\n.names k0\n.names k1\n1\n.end\n"
  in
  let v = Goodsim.eval_scalar c [| false |] in
  check Alcotest.bool "k0" false v.(Circuit.find_exn c "k0");
  check Alcotest.bool "k1" true v.(Circuit.find_exn c "k1")


(* --- Verilog writer ------------------------------------------------ *)

let verilog_writer_smoke () =
  let v = Verilog_format.to_string (Library.c17 ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check Alcotest.bool "module header" true (contains v "module c17");
  check Alcotest.bool "nand primitive" true (contains v "nand (");
  check Alcotest.bool "endmodule" true (contains v "endmodule");
  (* one primitive instance per gate *)
  let count_nand =
    let n = ref 0 in
    String.iteri
      (fun i _ ->
        if i + 5 <= String.length v && String.sub v i 5 = "nand " then incr n)
      v;
    !n
  in
  check Alcotest.int "six nands" 6 count_nand

let verilog_sequential_has_clock () =
  let seq =
    Bench_format.parse_string "INPUT(a)\nOUTPUT(o)\nq = DFF(n)\nn = XOR(a, q)\no = BUF(n)\n"
  in
  let v = Verilog_format.to_string seq in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check Alcotest.bool "clk port" true (contains v "input clk;");
  check Alcotest.bool "register" true (contains v "reg q;");
  check Alcotest.bool "clocked assign" true (contains v "always @(posedge clk) q <= n;")

(* --- validate / stats --------------------------------------------- *)

let validate_flags_dead () =
  let b = B.create () in
  let a = B.input b "a" in
  let _dead = B.gate b Gate.Not "dead" [ a ] in
  let live = B.gate b Gate.Buf "live" [ a ] in
  B.mark_output b live;
  let c = B.finish b in
  let dead = Validate.dead_nodes c in
  check Alcotest.int "one dead node" 1 (Array.length dead);
  check Alcotest.string "it is 'dead'" "dead" (Circuit.name c dead.(0))

let stats_counts () =
  let s = Stats.of_circuit (Library.c17 ()) in
  check Alcotest.int "pis" 5 s.Stats.pis;
  check Alcotest.int "pos" 2 s.Stats.pos;
  check Alcotest.int "gates" 6 s.Stats.gates;
  check Alcotest.int "pins" 12 s.Stats.pins;
  check Alcotest.int "depth" 3 s.Stats.depth

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick builder_basics;
          Alcotest.test_case "duplicate name" `Quick builder_duplicate_name;
          Alcotest.test_case "bad arity" `Quick builder_bad_arity;
          Alcotest.test_case "no outputs" `Quick builder_no_outputs;
          Alcotest.test_case "unconnected dff" `Quick builder_unconnected_dff;
          Alcotest.test_case "dff feedback" `Quick builder_dff_feedback;
          Alcotest.test_case "fanout dedup" `Quick fanouts_deduped;
        ] );
      ( "structure",
        [
          qtest topo_respects_fanins;
          qtest levels_strictly_increase;
          qtest fanout_inverse_of_fanin;
          qtest generator_no_dead_nodes;
          Alcotest.test_case "generator deterministic" `Quick generator_deterministic;
        ] );
      ( "ffr",
        [
          qtest ffr_stems_are_stems;
          qtest ffr_walk_reaches_stem;
          qtest ffr_regions_partition;
        ] );
      ( "bench",
        [
          qtest bench_roundtrip;
          Alcotest.test_case "forward refs" `Quick bench_parses_forward_refs;
          Alcotest.test_case "undefined signal" `Quick bench_rejects_undefined;
          Alcotest.test_case "cycle" `Quick bench_rejects_cycle;
          Alcotest.test_case "dff loop" `Quick bench_dff_loop;
          Alcotest.test_case "comments" `Quick bench_comments_and_blanks;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "unknown gate carries line" `Quick bench_diag_unknown_gate;
          Alcotest.test_case "truncated stmt is syntax" `Quick bench_diag_syntax_line;
          Alcotest.test_case "duplicate def" `Quick bench_diag_duplicate;
          Alcotest.test_case "empty input" `Quick bench_diag_empty;
          Alcotest.test_case "bench recover salvages" `Quick bench_recover_salvages;
          Alcotest.test_case "bench recover drops cycles" `Quick bench_recover_cycle_dropped;
          Alcotest.test_case "bench recover can give up" `Quick bench_recover_nothing_left;
          Alcotest.test_case "blif bad cover row" `Quick blif_diag_bad_cover;
          Alcotest.test_case "blif bad directive" `Quick blif_diag_bad_directive;
          Alcotest.test_case "blif recover salvages" `Quick blif_recover_salvages;
          Alcotest.test_case "blif recover drops dependents" `Quick blif_recover_drops_dependents;
        ] );
      ( "blif",
        [
          qtest blif_roundtrip_functional;
          Alcotest.test_case "basics" `Quick blif_parses_basics;
          Alcotest.test_case "off-set cover" `Quick blif_offset_cover;
          Alcotest.test_case "latch roundtrip" `Quick blif_latch_roundtrip;
          Alcotest.test_case "mixed cover rejected" `Quick blif_rejects_mixed_cover;
          Alcotest.test_case "constants" `Quick blif_constants;
        ] );
      ( "scan",
        [
          Alcotest.test_case "converts dffs" `Quick scan_converts_dffs;
          Alcotest.test_case "noop on combinational" `Quick scan_noop_on_combinational;
        ] );
      ( "rewrite",
        [
          qtest simplify_preserves_function;
          qtest rewrite_prunes_dead;
          Alcotest.test_case "constant folds" `Quick rewrite_constant_folds;
          Alcotest.test_case "node const" `Quick rewrite_node_const;
          Alcotest.test_case "pin const" `Quick rewrite_pin_const;
          Alcotest.test_case "xor cancellation" `Quick rewrite_xor_cancellation;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "c17" `Quick verilog_writer_smoke;
          Alcotest.test_case "sequential" `Quick verilog_sequential_has_clock;
        ] );
      ( "validate",
        [
          Alcotest.test_case "dead nodes" `Quick validate_flags_dead;
          Alcotest.test_case "stats" `Quick stats_counts;
        ] );
    ]
