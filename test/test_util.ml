(* Tests for Util: Rng, Bitvec, Heap, Table, Plot. *)

module Rng = Util.Rng
module Bitvec = Util.Bitvec
module Heap = Util.Heap
module Table = Util.Table
module Plot = Util.Plot
module Budget = Util.Budget
module Parallel = Util.Parallel
module D = Util.Diagnostics

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rng ---------------------------------------------------------- *)

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let diff = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then diff := true
  done;
  check Alcotest.bool "streams differ" true !diff

let rng_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
  @@ fun (seed, bound) ->
  let rng = Rng.create seed in
  let ok = ref true in
  for _ = 1 to 50 do
    let v = Rng.int rng bound in
    if v < 0 || v >= bound then ok := false
  done;
  !ok

let rng_int_rejects_bad () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let f = Rng.float rng 2.5 in
    check Alcotest.bool "in [0, 2.5)" true (f >= 0.0 && f < 2.5)
  done

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"Rng.shuffle is a permutation" ~count:100 QCheck.small_int
  @@ fun seed ->
  let rng = Rng.create seed in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  sorted = Array.init 20 Fun.id

let rng_split_differs () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  check Alcotest.bool "split streams differ" true (Rng.int64 a <> Rng.int64 b)

(* --- Bitvec ------------------------------------------------------- *)

let bitvec_get_set () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0 true;
  Bitvec.set v 64 true;
  Bitvec.set v 129 true;
  check Alcotest.bool "bit 0" true (Bitvec.get v 0);
  check Alcotest.bool "bit 1" false (Bitvec.get v 1);
  check Alcotest.bool "bit 64" true (Bitvec.get v 64);
  check Alcotest.bool "bit 129" true (Bitvec.get v 129);
  check Alcotest.int "popcount" 3 (Bitvec.popcount v);
  Bitvec.set v 64 false;
  check Alcotest.int "popcount after clear" 2 (Bitvec.popcount v)

let bitvec_out_of_range () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Bitvec.get v (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Bitvec.get v 10))

let bitvec_fill () =
  let v = Bitvec.create 70 in
  Bitvec.fill v true;
  check Alcotest.int "all set" 70 (Bitvec.popcount v);
  Bitvec.fill v false;
  check Alcotest.int "all clear" 0 (Bitvec.popcount v);
  check Alcotest.bool "is_zero" true (Bitvec.is_zero v)

let bool_array_gen n = QCheck.Gen.(array_size (return n) bool)

let bitvec_roundtrip =
  QCheck.Test.make ~name:"Bitvec of/to bool array" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 200 >>= bool_array_gen))
  @@ fun a -> Bitvec.to_bool_array (Bitvec.of_bool_array a) = a

let bitvec_setops =
  QCheck.Test.make ~name:"Bitvec set ops match boolean ops" ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 1 150 >>= fun n ->
         pair (bool_array_gen n) (bool_array_gen n)))
  @@ fun (a, b) ->
  let va = Bitvec.of_bool_array a and vb = Bitvec.of_bool_array b in
  let vu = Bitvec.copy va in
  Bitvec.union_into ~dst:vu vb;
  let vi = Bitvec.copy va in
  Bitvec.inter_into ~dst:vi vb;
  let vd = Bitvec.copy va in
  Bitvec.diff_into ~dst:vd vb;
  Bitvec.to_bool_array vu = Array.map2 ( || ) a b
  && Bitvec.to_bool_array vi = Array.map2 ( && ) a b
  && Bitvec.to_bool_array vd = Array.map2 (fun x y -> x && not y) a b

let bitvec_iter_set =
  QCheck.Test.make ~name:"Bitvec.iter_set visits exactly the set bits in order" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 200 >>= bool_array_gen))
  @@ fun a ->
  let v = Bitvec.of_bool_array a in
  let seen = ref [] in
  Bitvec.iter_set v (fun i -> seen := i :: !seen);
  List.rev !seen = List.filter (fun i -> a.(i)) (List.init (Array.length a) Fun.id)

let bitvec_block_ops =
  QCheck.Test.make ~name:"Bitvec xor_into/union_many match boolean ops" ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 1 150 >>= fun n ->
         pair (bool_array_gen n) (list_size (int_bound 5) (bool_array_gen n))))
  @@ fun (a, srcs) ->
  let xored =
    match srcs with
    | [] -> a
    | b :: _ ->
        let v = Bitvec.of_bool_array a in
        Bitvec.xor_into ~dst:v (Bitvec.of_bool_array b);
        Bitvec.to_bool_array v
  in
  let unioned =
    let v = Bitvec.of_bool_array a in
    Bitvec.union_many ~dst:v (Array.of_list (List.map Bitvec.of_bool_array srcs));
    Bitvec.to_bool_array v
  in
  xored
  = (match srcs with [] -> a | b :: _ -> Array.map2 (fun x y -> x <> y) a b)
  && unioned = List.fold_left (Array.map2 ( || )) a srcs

let bitvec_iteri_words =
  QCheck.Test.make ~name:"Bitvec.iteri_words covers every bit with zero padding" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 200 >>= bool_array_gen))
  @@ fun a ->
  let v = Bitvec.of_bool_array a in
  let n = Array.length a in
  let ok = ref true in
  let words = ref 0 in
  Bitvec.iteri_words v (fun i w ->
      incr words;
      for j = 0 to 63 do
        let bit = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
        let idx = (64 * i) + j in
        let expect = idx < n && a.(idx) in
        if bit <> expect then ok := false
      done);
  !ok && !words = (n + 63) / 64

let bitvec_block_ops_normalised () =
  (* In-place ops on a non-multiple-of-64 length must keep the padding
     zero, or popcount/iter_set would see ghost bits. *)
  let a = Bitvec.create 70 in
  let b = Bitvec.create 70 in
  Bitvec.fill b true;
  Bitvec.xor_into ~dst:a b;
  check Alcotest.int "xor_into popcount" 70 (Bitvec.popcount a);
  let u = Bitvec.create 70 in
  Bitvec.union_many ~dst:u [| b; b; b |];
  check Alcotest.int "union_many popcount" 70 (Bitvec.popcount u);
  Bitvec.union_many ~dst:u [||];
  check Alcotest.int "empty union_many is a no-op" 70 (Bitvec.popcount u);
  check Alcotest.bool "length mismatch rejected" true
    (try
       Bitvec.union_many ~dst:u [| Bitvec.create 64 |];
       false
     with Invalid_argument _ -> true)

let bitvec_first_set () =
  let v = Bitvec.create 100 in
  check Alcotest.(option int) "none" None (Bitvec.first_set v);
  Bitvec.set v 77 true;
  check Alcotest.(option int) "77" (Some 77) (Bitvec.first_set v);
  Bitvec.set v 3 true;
  check Alcotest.(option int) "3" (Some 3) (Bitvec.first_set v)

let bitvec_random_length () =
  let rng = Rng.create 5 in
  let v = Bitvec.random rng 99 in
  check Alcotest.int "length" 99 (Bitvec.length v);
  (* Padding bits beyond the length must stay clear. *)
  check Alcotest.bool "popcount sane" true (Bitvec.popcount v <= 99)

(* ctz/popcount against bit-by-bit references. *)

let naive_ctz w =
  if w = 0L then 64
  else begin
    let i = ref 0 in
    while Int64.logand (Int64.shift_right_logical w !i) 1L = 0L do
      incr i
    done;
    !i
  end

let naive_popcount w =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then incr n
  done;
  !n

let word_gen =
  QCheck.Gen.(
    map2
      (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))

let bitvec_ctz =
  QCheck.Test.make ~name:"Bitvec.ctz matches bit-by-bit scan" ~count:500 (QCheck.make word_gen)
  @@ fun w -> Bitvec.ctz w = naive_ctz w

let bitvec_ctz_exact () =
  check Alcotest.int "zero word" 64 (Bitvec.ctz 0L);
  check Alcotest.int "bit 0" 0 (Bitvec.ctz 1L);
  check Alcotest.int "bit 63" 63 (Bitvec.ctz Int64.min_int);
  for i = 0 to 63 do
    check Alcotest.int "single bit" i (Bitvec.ctz (Int64.shift_left 1L i))
  done

let bitvec_popcount_word =
  QCheck.Test.make ~name:"Bitvec.popcount_word matches bit-by-bit count" ~count:500
    (QCheck.make word_gen)
  @@ fun w -> Bitvec.popcount_word w = naive_popcount w

(* --- Parallel ------------------------------------------------------ *)

(* Seven tasks fall into at most [cores] groups, so on a small machine
   a group runs several tasks in turn; each task still runs once. *)
let par_each_task_once () =
  let hits = Array.init 7 (fun _ -> Atomic.make 0) in
  Parallel.run (Array.init 7 (fun i () -> Atomic.incr hits.(i)));
  check Alcotest.(list int) "each task once" (List.init 7 (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get hits))

let par_exception_propagates () =
  (* Odd tasks raise; on 2 cores task 2 shares task 1's group. *)
  let ran = Array.init 7 (fun _ -> Atomic.make false) in
  let tasks =
    Array.init 7 (fun i ->
        fun () ->
         Atomic.set ran.(i) true;
         if i mod 2 = 1 then failwith (Printf.sprintf "task %d" i))
  in
  (match Parallel.run tasks with
  | () -> Alcotest.fail "expected a task failure to propagate"
  | exception Failure msg -> check Alcotest.string "lowest-indexed failure wins" "task 1" msg);
  check Alcotest.bool "later tasks still ran" true (Array.for_all Atomic.get ran)

let par_single_lane_inline () =
  (* One task runs on the calling domain. *)
  let self = Domain.self () in
  let seen = ref None in
  Parallel.run [| (fun () -> seen := Some (Domain.self ())) |];
  check Alcotest.bool "ran inline" true (!seen = Some self)

(* --- Heap --------------------------------------------------------- *)

let heap_pops_sorted =
  QCheck.Test.make ~name:"Heap pops keys in decreasing order" ~count:200
    QCheck.(list (int_range 0 1000))
  @@ fun keys ->
  let h = Heap.create () in
  List.iteri (fun i k -> Heap.push h ~key:k i) keys;
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc) in
  let out = drain [] in
  out = List.sort (fun a b -> compare b a) keys

let heap_tie_break () =
  let h = Heap.create () in
  Heap.push h ~key:5 2;
  Heap.push h ~key:5 1;
  Heap.push h ~key:7 3;
  check Alcotest.(option (pair int int)) "max first" (Some (7, 3)) (Heap.pop h);
  check Alcotest.(option (pair int int)) "tie -> smaller payload" (Some (5, 1)) (Heap.pop h);
  check Alcotest.(option (pair int int)) "then larger" (Some (5, 2)) (Heap.pop h);
  check Alcotest.(option (pair int int)) "empty" None (Heap.pop h)

(* --- Table -------------------------------------------------------- *)

let table_render () =
  let t = Table.create [ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned numbers line up: the "22" row ends with "22". *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines)
  (* header, rule, 2 rows, trailing empty *)

let table_mismatch () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: column count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* --- Plot --------------------------------------------------------- *)

(* Naive substring search, used by several string-shaped checks. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let plot_renders () =
  let s =
    Plot.render ~x_label:"x" ~y_label:"y"
      [
        { Plot.marker = 'o'; points = Array.init 10 (fun i -> (float_of_int i, float_of_int (i * i))); label = "sq" };
      ]
  in
  check Alcotest.bool "mentions label" true (contains s "o - sq");
  check Alcotest.bool "draws marker" true (contains s "o")

(* --- Budget ------------------------------------------------------- *)

(* A fake clock the test advances by hand, so expiry is deterministic. *)
let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let budget_unlimited () =
  check Alcotest.bool "is_unlimited" true (Budget.is_unlimited Budget.unlimited);
  check Alcotest.bool "never expires" false (Budget.expired Budget.unlimited);
  check Alcotest.bool "infinite remaining" true (Budget.remaining_s Budget.unlimited = infinity)

let budget_expires_on_clock () =
  let clock, advance = fake_clock () in
  let b = Budget.of_seconds ~clock 5.0 in
  check Alcotest.bool "fresh" false (Budget.expired b);
  check Alcotest.(float 1e-9) "full remaining" 5.0 (Budget.remaining_s b);
  advance 4.9;
  check Alcotest.bool "still inside" false (Budget.expired b);
  advance 0.2;
  check Alcotest.bool "past deadline" true (Budget.expired b);
  check Alcotest.(float 0.0) "clamped to zero" 0.0 (Budget.remaining_s b)

let budget_zero_already_expired () =
  let clock, _ = fake_clock () in
  check Alcotest.bool "zero budget" true (Budget.expired (Budget.of_seconds ~clock 0.0))

let budget_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Budget.of_seconds: negative budget")
    (fun () -> ignore (Budget.of_seconds (-1.0)))

let budget_of_seconds_opt () =
  let clock, _ = fake_clock () in
  check Alcotest.bool "None is unlimited" true
    (Budget.is_unlimited (Budget.of_seconds_opt ~clock None));
  check Alcotest.bool "Some is a deadline" false
    (Budget.is_unlimited (Budget.of_seconds_opt ~clock (Some 1.0)))

let budget_min_of () =
  let clock, advance = fake_clock () in
  let early = Budget.of_seconds ~clock 1.0 and late = Budget.of_seconds ~clock 10.0 in
  let m = Budget.min_of early late in
  check Alcotest.bool "min with unlimited keeps deadline" false
    (Budget.is_unlimited (Budget.min_of Budget.unlimited early));
  advance 2.0;
  check Alcotest.bool "earlier deadline wins" true (Budget.expired m);
  check Alcotest.bool "later one alone survives" false (Budget.expired late)

let budget_sub_slice () =
  let clock, advance = fake_clock () in
  let run = Budget.of_seconds ~clock 10.0 in
  (* A generous slice is still capped by the enclosing budget... *)
  let slice = Budget.sub ~clock run ~seconds:60.0 in
  check Alcotest.(float 1e-9) "capped by parent" 10.0 (Budget.remaining_s slice);
  (* ...and a short slice expires before the run does. *)
  let short = Budget.sub ~clock run ~seconds:1.0 in
  advance 1.5;
  check Alcotest.bool "slice expired" true (Budget.expired short);
  check Alcotest.bool "run still open" false (Budget.expired run);
  check Alcotest.bool "sub_opt None is parent" false
    (Budget.expired (Budget.sub_opt ~clock run None))

(* --- Diagnostics -------------------------------------------------- *)

let diag_to_string_with_line () =
  let d = D.error ~loc:(D.line ~file:"x.bench" 12) D.Unknown_gate "no such gate %S" "FROB" in
  check Alcotest.string "rendering" "x.bench:12: error: no such gate \"FROB\" [E-unknown-gate]"
    (D.to_string d)

let diag_to_string_no_line () =
  let d = D.error ~loc:{ D.file = Some "ck.bin"; line = 0 } D.Checkpoint_format "bad header" in
  check Alcotest.string "line 0 omitted" "ck.bin: error: bad header [E-checkpoint-format]"
    (D.to_string d);
  let bare = D.error D.Empty_input "nothing to parse" in
  check Alcotest.string "no location at all" "error: nothing to parse [E-empty]"
    (D.to_string bare)

let diag_severities () =
  let w = D.warning D.Dead_logic "node drives nothing" in
  check Alcotest.string "warning slug" "W-dead-logic" (D.code_string w.D.code);
  check Alcotest.bool "warning is not an error" false (D.is_error w);
  let e = D.error D.Syntax "bad" in
  check Alcotest.int "count_errors" 1 (D.count_errors [ w; e; w ])

let diag_fail_raises () =
  match D.fail ~loc:(D.line 3) D.Syntax "boom %d" 7 with
  | exception D.Failed d ->
      check Alcotest.string "message formatted" "boom 7" d.D.message;
      check Alcotest.int "line carried" 3 d.D.loc.D.line
  | _ -> Alcotest.fail "expected Failed"

let () =
  Util.Trace.install_from_env ();
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "int rejects bad bound" `Quick rng_int_rejects_bad;
          Alcotest.test_case "float range" `Quick rng_float_range;
          Alcotest.test_case "split" `Quick rng_split_differs;
          qtest rng_int_bounds;
          qtest rng_shuffle_permutes;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "get/set/popcount" `Quick bitvec_get_set;
          Alcotest.test_case "bounds" `Quick bitvec_out_of_range;
          Alcotest.test_case "fill" `Quick bitvec_fill;
          Alcotest.test_case "first_set" `Quick bitvec_first_set;
          Alcotest.test_case "random" `Quick bitvec_random_length;
          Alcotest.test_case "ctz exact" `Quick bitvec_ctz_exact;
          qtest bitvec_roundtrip;
          qtest bitvec_setops;
          qtest bitvec_iter_set;
          qtest bitvec_ctz;
          qtest bitvec_popcount_word;
          qtest bitvec_block_ops;
          qtest bitvec_iteri_words;
          Alcotest.test_case "block ops stay normalised" `Quick bitvec_block_ops_normalised;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "every task runs exactly once" `Quick par_each_task_once;
          Alcotest.test_case "exceptions propagate" `Quick par_exception_propagates;
          Alcotest.test_case "single lane runs inline" `Quick par_single_lane_inline;
        ] );
      ( "heap",
        [
          Alcotest.test_case "tie break" `Quick heap_tie_break;
          qtest heap_pops_sorted;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "mismatch" `Quick table_mismatch;
        ] );
      ("plot", [ Alcotest.test_case "renders" `Quick plot_renders ]);
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick budget_unlimited;
          Alcotest.test_case "expires on clock" `Quick budget_expires_on_clock;
          Alcotest.test_case "zero already expired" `Quick budget_zero_already_expired;
          Alcotest.test_case "negative rejected" `Quick budget_negative_rejected;
          Alcotest.test_case "of_seconds_opt" `Quick budget_of_seconds_opt;
          Alcotest.test_case "min_of" `Quick budget_min_of;
          Alcotest.test_case "sub slices" `Quick budget_sub_slice;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "to_string with line" `Quick diag_to_string_with_line;
          Alcotest.test_case "to_string without line" `Quick diag_to_string_no_line;
          Alcotest.test_case "severities and counting" `Quick diag_severities;
          Alcotest.test_case "fail raises Failed" `Quick diag_fail_raises;
        ] );
    ]
