(* Tests for pattern sets and the simulators.  The load-bearing
   properties: every fault-simulation driver and the engine's
   event-driven single-fault path agree with the naive
   full-re-evaluation oracle on every fault and pattern. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

module Bitvec = Util.Bitvec
module Rng = Util.Rng

let small_circuit_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun pis ->
    int_range 3 25 >>= fun gates ->
    int_bound 10_000 >>= fun seed ->
    return (Generate.random ~seed ~name:"qc" (Generate.profile ~pis ~gates ())))

let arb_circuit = QCheck.make small_circuit_gen

(* --- patterns ----------------------------------------------------- *)

let patterns_exhaustive_decimal () =
  let p = Patterns.exhaustive ~n_inputs:4 in
  check Alcotest.int "count" 16 (Patterns.count p);
  for u = 0 to 15 do
    check Alcotest.int "decimal identity" u (Patterns.decimal p u)
  done;
  (* First input is the MSB: pattern 8 sets input 0 only. *)
  check Alcotest.bool "msb convention" true (Patterns.value p ~input:0 ~pattern:8);
  check Alcotest.bool "lsb convention" true (Patterns.value p ~input:3 ~pattern:1)

let patterns_roundtrip =
  QCheck.Test.make ~name:"of_vectors / vector roundtrip" ~count:100
    QCheck.(
      make
        Gen.(
          int_range 1 8 >>= fun w ->
          list_size (int_range 1 40) (array_size (return w) bool) >>= fun rows ->
          return (w, Array.of_list rows)))
  @@ fun (w, rows) ->
  let p = Patterns.of_vectors ~n_inputs:w rows in
  Array.for_all2 ( = ) rows (Array.init (Patterns.count p) (Patterns.vector p))

let patterns_word_extraction () =
  let rng = Rng.create 4 in
  let p = Patterns.random rng ~n_inputs:3 ~count:130 in
  (* Word lane j of block b equals the stored bit. *)
  for b = 0 to Patterns.blocks p - 1 do
    let w = Patterns.word p ~input:1 ~block:b in
    for j = 0 to min 63 (Patterns.count p - (b * 64) - 1) do
      let expect = Patterns.value p ~input:1 ~pattern:((b * 64) + j) in
      let got = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
      check Alcotest.bool "lane matches" expect got
    done
  done

let patterns_prefix_concat () =
  let rng = Rng.create 5 in
  let a = Patterns.random rng ~n_inputs:4 ~count:70 in
  let b = Patterns.random rng ~n_inputs:4 ~count:30 in
  let ab = Patterns.concat a b in
  check Alcotest.int "concat count" 100 (Patterns.count ab);
  check Alcotest.bool "prefix of concat = a" true
    (Array.for_all2 ( = )
       (Array.init 70 (Patterns.vector a))
       (Array.init 70 (Patterns.vector (Patterns.prefix ab 70))));
  check Alcotest.bool "tail of concat = b" true
    (Array.for_all2 ( = )
       (Array.init 30 (Patterns.vector b))
       (Array.init 30 (fun i -> Patterns.vector ab (70 + i))))

let patterns_to_strings () =
  let p = Patterns.of_vectors ~n_inputs:3 [| [| true; false; true |] |] in
  check Alcotest.(array string) "strings" [| "101" |] (Patterns.to_strings p)


let patterns_file_roundtrip () =
  let rng = Rng.create 14 in
  let p = Patterns.random rng ~n_inputs:7 ~count:33 in
  let path = Filename.temp_file "pats" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Patterns.save_file path p;
  let q = Patterns.load_file path in
  check Alcotest.(array string) "roundtrip" (Patterns.to_strings p) (Patterns.to_strings q)

let patterns_of_strings_rejects () =
  check Alcotest.bool "ragged" true
    (try ignore (Patterns.of_strings [| "01"; "0" |]); false with Invalid_argument _ -> true);
  check Alcotest.bool "bad char" true
    (try ignore (Patterns.of_strings [| "0x" |]); false with Invalid_argument _ -> true)

(* --- good simulation ---------------------------------------------- *)

let goodsim_word_matches_scalar =
  QCheck.Test.make ~name:"bit-parallel good sim = scalar reference" ~count:50 arb_circuit
  @@ fun c ->
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 17 in
  let pats = Patterns.random rng ~n_inputs ~count:100 in
  let ok = ref true in
  for b = 0 to Patterns.blocks pats - 1 do
    let words = Goodsim.block c pats b in
    let hi = min 64 (Patterns.count pats - (b * 64)) in
    for j = 0 to hi - 1 do
      let scalar = Goodsim.eval_scalar c (Patterns.vector pats ((b * 64) + j)) in
      Circuit.iter_nodes c (fun n ->
          let got = Int64.logand (Int64.shift_right_logical words.(n) j) 1L = 1L in
          if got <> scalar.(n) then ok := false)
    done
  done;
  !ok

let goodsim_outputs_shape () =
  let c = Library.c17 () in
  let pats = Patterns.exhaustive ~n_inputs:5 in
  let cols = Goodsim.outputs c pats in
  check Alcotest.int "one column per PO" 2 (Array.length cols);
  check Alcotest.int "column length" 32 (Bitvec.length cols.(0))

let goodsim_c17_known_vector () =
  (* All-ones input: G10 = NAND(1,1) = 0; G11 = 0; G16 = NAND(1,0) = 1;
     G19 = NAND(0,1) = 1; G22 = NAND(0,1) = 1; G23 = NAND(1,1) = 0. *)
  let c = Library.c17 () in
  let v = Goodsim.eval_scalar c [| true; true; true; true; true |] in
  check Alcotest.bool "G22" true v.(Circuit.find_exn c "G22");
  check Alcotest.bool "G23" false v.(Circuit.find_exn c "G23")

(* --- fault simulation vs oracle ----------------------------------- *)

let detection_sets_match_oracle =
  QCheck.Test.make ~name:"detection_sets = naive oracle" ~count:30 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 23 in
  let pats = Patterns.random rng ~n_inputs ~count:80 in
  let fast = Faultsim.detection_sets fl pats in
  let slow = Refsim.detection_table fl pats in
  let ok = ref true in
  Array.iteri
    (fun fi d ->
      Array.iteri (fun p expect -> if Bitvec.get d p <> expect then ok := false) slow.(fi))
    fast;
  !ok

let with_dropping_matches_sets =
  QCheck.Test.make ~name:"with_dropping finds the first bit of each detection set" ~count:30
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 29 in
  let pats = Patterns.random rng ~n_inputs ~count:80 in
  let sets = Faultsim.detection_sets fl pats in
  let { Faultsim.first_detection; detected } = Faultsim.with_dropping fl pats in
  let expected_detected = Array.fold_left (fun a d -> if Bitvec.is_zero d then a else a + 1) 0 sets in
  detected = expected_detected
  && Array.for_all2
       (fun d first ->
         match Bitvec.first_set d with None -> first = -1 | Some p -> first = p)
       sets first_detection

let ndet_counts =
  QCheck.Test.make ~name:"ndet sums the detection sets per pattern" ~count:30 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 31 in
  let pats = Patterns.random rng ~n_inputs ~count:70 in
  let sets = Faultsim.detection_sets fl pats in
  let nd = Faultsim.ndet sets pats in
  let ok = ref true in
  for u = 0 to Patterns.count pats - 1 do
    let expect =
      Array.fold_left (fun a d -> if Bitvec.get d u then a + 1 else a) 0 sets
    in
    if nd.(u) <> expect then ok := false
  done;
  !ok

let detects_single =
  QCheck.Test.make ~name:"Faultsim.detects agrees with Refsim.detects" ~count:30 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 41 in
  let ok = ref true in
  for _ = 1 to 20 do
    let vec = Array.init n_inputs (fun _ -> Rng.bool rng) in
    let fi = Rng.int rng (Fault_list.count fl) in
    let f = Fault_list.get fl fi in
    if Faultsim.detects c f vec <> Refsim.detects c f vec then ok := false
  done;
  !ok

let undetectable_stuck_const () =
  (* Stem s-a-0 on a constant-0 node is never detectable. *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b "a" in
  let z = Circuit.Builder.const b "z" false in
  let g = Circuit.Builder.gate b Gate.Or "g" [ a; z ] in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finish b in
  let f = Fault.stem (Circuit.find_exn c "z") false in
  check Alcotest.bool "not detected by 0" false (Faultsim.detects c f [| false |]);
  check Alcotest.bool "not detected by 1" false (Faultsim.detects c f [| true |])


let capped_sets_are_prefixes =
  QCheck.Test.make ~name:"detection_sets_capped keeps the n earliest detections" ~count:30
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 43 in
  let pats = Patterns.random rng ~n_inputs ~count:80 in
  let full = Faultsim.detection_sets fl pats in
  let capped = Faultsim.detection_sets_capped fl pats ~n:3 in
  let ok = ref true in
  Array.iteri
    (fun fi d ->
      (* capped = the first (up to 3) set bits of the full set *)
      let expect = Bitvec.create (Patterns.count pats) in
      let k = ref 0 in
      Bitvec.iter_set full.(fi) (fun p ->
          if !k < 3 then begin
            Bitvec.set expect p true;
            incr k
          end);
      if not (Bitvec.equal d expect) then ok := false)
    capped;
  !ok


(* --- the event path, jobs and superblock widths ---------------------- *)

(* CI runs the suite under ADI_JOBS=1 and ADI_JOBS=4; the parity
   properties below compare that lane count against one lane. *)
let env_jobs =
  match Sys.getenv_opt "ADI_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 4)
  | None -> 4

let words_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Bitvec.t) y ->
         Bitvec.length x = Bitvec.length y && Bitvec.words x = Bitvec.words y)
       a b

(* Detection sets from the engine's single-fault event path:
   [detect_block] on a width-1 workspace, one block at a time. *)
let event_sets fl pats =
  let ws = Faultsim.workspace (Fault_list.circuit fl) in
  let good = Faultsim.good_arena ws in
  let cnt = Patterns.count pats in
  let sets = Array.init (Fault_list.count fl) (fun _ -> Bitvec.create cnt) in
  for b = 0 to Patterns.blocks pats - 1 do
    Faultsim.load_good ws good pats b;
    Array.iteri
      (fun fi set ->
        let d = Faultsim.detect_block ws ~good (Fault_list.get fl fi) in
        for j = 0 to min 63 (cnt - (b * 64) - 1) do
          if Int64.logand (Int64.shift_right_logical d j) 1L = 1L then
            Bitvec.set set ((b * 64) + j) true
        done)
      sets
  done;
  sets

let oracle_sets fl pats =
  Array.map
    (fun row ->
      let b = Bitvec.create (Array.length row) in
      Array.iteri (fun p hit -> if hit then Bitvec.set b p true) row;
      b)
    (Refsim.detection_table fl pats)

let detect_block_matches_oracle =
  QCheck.Test.make ~name:"detect_block (event path) = naive oracle" ~count:20 arb_circuit
  @@ fun c ->
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 61 in
  let pats = Patterns.random rng ~n_inputs ~count:150 in
  List.for_all
    (fun fl -> words_equal (oracle_sets fl pats) (event_sets fl pats))
    [ Collapse.collapsed c; Fault_list.full c ]

let parallel_detection_sets_identical =
  QCheck.Test.make
    ~name:(Printf.sprintf "detection_sets ~jobs:%d = serial, word for word" env_jobs)
    ~count:30 arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 53 in
  let pats = Patterns.random rng ~n_inputs ~count:150 in
  words_equal (Faultsim.detection_sets fl pats) (Faultsim.detection_sets ~jobs:env_jobs fl pats)

let superblock_width_rule () =
  List.iter
    (fun (jobs, blocks, w) ->
      check Alcotest.int
        (Printf.sprintf "jobs %d, %d blocks" jobs blocks)
        w
        (Faultsim.superblock_width ~jobs blocks))
    [ (1, 0, 1); (1, 1, 1); (1, 3, 3); (1, 7, 7); (1, 8, 8); (1, 10, 8); (1, 64, 8);
      (2, 1, 1); (2, 7, 4); (2, 16, 8); (2, 64, 8); (4, 3, 1); (4, 10, 3); (0, 5, 5) ]

(* Every driver against the naive oracle: the expected detection sets,
   first detections, n-capped counts and n-capped sets are all derived
   from Refsim's detection table.  64, 160 and 600 patterns make
   detection_sets derive widths 1, 3 and 8 at one lane (600 patterns
   end in a partial superblock of 2 blocks) and 1, 1 and 3 at four;
   the dropping family scans one block at a time.  One vector
   repeated over the first block pushes most first and n-th
   detections into later blocks (the last one partial). *)
let drivers_match_oracle =
  QCheck.Test.make
    ~name:(Printf.sprintf "every driver at jobs 1/%d = naive oracle" env_jobs)
    ~count:15 arb_circuit
  @@ fun c ->
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 79 in
  let n = 3 in
  List.for_all
    (fun cnt ->
      let v = Array.init n_inputs (fun _ -> Rng.bool rng) in
      let pats =
        if cnt <= 64 then Patterns.random rng ~n_inputs ~count:cnt
        else
          Patterns.concat
            (Patterns.of_vectors ~n_inputs (Array.make 64 v))
            (Patterns.random rng ~n_inputs ~count:(cnt - 64))
      in
      List.for_all
        (fun fl ->
          (* Per fault, its detecting patterns in increasing order. *)
          let hits =
            Array.map
              (fun row -> List.filter (fun p -> row.(p)) (List.init cnt Fun.id))
              (Refsim.detection_table fl pats)
          in
          let set_of ps =
            let b = Bitvec.create cnt in
            List.iter (fun p -> Bitvec.set b p true) ps;
            b
          in
          let drop =
            { Faultsim.first_detection = Array.map (function [] -> -1 | p :: _ -> p) hits;
              detected = Array.fold_left (fun a ps -> if ps = [] then a else a + 1) 0 hits }
          in
          let capped = Array.map (fun ps -> set_of (List.filteri (fun i _ -> i < n) ps)) hits in
          List.for_all
            (fun jobs -> words_equal (Array.map set_of hits) (Faultsim.detection_sets ~jobs fl pats))
            (List.sort_uniq compare [ 1; env_jobs ])
          && Faultsim.with_dropping fl pats = drop
          && words_equal capped (Faultsim.detection_sets_capped fl pats ~n))
        [ Collapse.collapsed c; Fault_list.full c ])
    [ 64; 160; 600 ]

(* --- wide superblocks ---------------------------------------------- *)

let block_outputs_width_identical =
  QCheck.Test.make
    ~name:"detect_block_outputs: wide lanes = per-block narrow runs" ~count:10
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 101 in
  let nout = Array.length (Circuit.outputs c) in
  let narrow = Faultsim.workspace c in
  let g1 = Faultsim.good_arena narrow in
  let ok = ref true in
  List.iter
    (fun width ->
      let pats = Patterns.random rng ~n_inputs ~count:(64 * width) in
      let wide = Faultsim.workspace ~width c in
      let gw = Faultsim.good_arena wide in
      Faultsim.load_good wide gw pats 0;
      for fi = 0 to Fault_list.count fl - 1 do
        let f = Fault_list.get fl fi in
        let out_w = Array.make (nout * width) 0L in
        let det_w = Array.copy (Faultsim.detect_block_outputs wide ~good:gw ~out:out_w f) in
        for b = 0 to width - 1 do
          Faultsim.load_good narrow g1 pats b;
          let out_1 = Array.make nout 0L in
          let det_1 = Faultsim.detect_block_outputs narrow ~good:g1 ~out:out_1 f in
          if det_1.(0) <> det_w.(b) then ok := false;
          for oi = 0 to nout - 1 do
            if out_1.(oi) <> out_w.((oi * width) + b) then ok := false
          done
        done
      done)
    [ 3; 8 ];
  !ok

(* --- deductive simulation ------------------------------------------ *)

let deductive_matches_event_driven =
  QCheck.Test.make ~name:"deductive detection sets = event-driven PPSFP sets" ~count:30
    arb_circuit
  @@ fun c ->
  let fl = Collapse.collapsed c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 47 in
  let pats = Patterns.random rng ~n_inputs ~count:40 in
  let a = event_sets fl pats in
  let b = Deductive.detection_sets fl pats in
  let ok = ref true in
  Array.iteri (fun fi d -> if not (Bitvec.equal d b.(fi)) then ok := false) a;
  !ok

let deductive_full_universe =
  QCheck.Test.make ~name:"deductive agrees on the full (uncollapsed) universe" ~count:15
    arb_circuit
  @@ fun c ->
  let fl = Fault_list.full c in
  let n_inputs = Array.length (Circuit.inputs c) in
  let rng = Rng.create 49 in
  let pats = Patterns.random rng ~n_inputs ~count:30 in
  let a = Faultsim.detection_sets fl pats in
  let b = Deductive.detection_sets fl pats in
  let ok = ref true in
  Array.iteri (fun fi d -> if not (Bitvec.equal d b.(fi)) then ok := false) a;
  !ok


let () =
  Util.Trace.install_from_env ();
  Alcotest.run "sim"
    [
      ( "patterns",
        [
          Alcotest.test_case "exhaustive decimal" `Quick patterns_exhaustive_decimal;
          Alcotest.test_case "word extraction" `Quick patterns_word_extraction;
          Alcotest.test_case "prefix/concat" `Quick patterns_prefix_concat;
          Alcotest.test_case "to_strings" `Quick patterns_to_strings;
          Alcotest.test_case "file roundtrip" `Quick patterns_file_roundtrip;
          Alcotest.test_case "of_strings rejects" `Quick patterns_of_strings_rejects;
          qtest patterns_roundtrip;
        ] );
      ( "goodsim",
        [
          Alcotest.test_case "outputs shape" `Quick goodsim_outputs_shape;
          Alcotest.test_case "c17 known vector" `Quick goodsim_c17_known_vector;
          qtest goodsim_word_matches_scalar;
        ] );
      ( "faultsim",
        [
          Alcotest.test_case "undetectable const fault" `Quick undetectable_stuck_const;
          qtest detection_sets_match_oracle;
          qtest with_dropping_matches_sets;
          qtest ndet_counts;
          qtest capped_sets_are_prefixes;
          qtest detects_single;
          qtest parallel_detection_sets_identical;
          Alcotest.test_case "superblock width rule" `Quick superblock_width_rule;
          qtest detect_block_matches_oracle;
          qtest drivers_match_oracle;
          qtest deductive_matches_event_driven;
          qtest block_outputs_width_identical;
          qtest deductive_full_universe;
        ] );
    ]
