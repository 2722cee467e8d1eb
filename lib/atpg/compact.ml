module Bitvec = Util.Bitvec

type result = { kept : int array; tests : Patterns.t }

let set_cover ?(jobs = 1) fl pats =
  let c = Fault_list.circuit fl in
  let n_inputs = Array.length (Circuit.inputs c) in
  if Patterns.n_inputs pats <> n_inputs then
    invalid_arg "Compact.set_cover: pattern width mismatch";
  let n_tests = Patterns.count pats in
  let dsets = Faultsim.detection_sets ~jobs fl pats in
  let nf = Fault_list.count fl in
  (* Transpose to per-test fault sets. *)
  let per_test = Array.init n_tests (fun _ -> Bitvec.create nf) in
  Array.iteri (fun fi d -> Bitvec.iter_set d (fun t -> Bitvec.set per_test.(t) fi true)) dsets;
  let remaining = Array.map Bitvec.copy per_test in
  let used = Array.make n_tests false in
  let kept = ref [] in
  let rec loop () =
    let best = ref (-1) and best_cnt = ref 0 in
    for t = 0 to n_tests - 1 do
      if not used.(t) then begin
        let cnt = Bitvec.popcount remaining.(t) in
        if cnt > !best_cnt then begin
          best := t;
          best_cnt := cnt
        end
      end
    done;
    if !best >= 0 && !best_cnt > 0 then begin
      used.(!best) <- true;
      kept := !best :: !kept;
      for t = 0 to n_tests - 1 do
        if not used.(t) then Bitvec.diff_into ~dst:remaining.(t) per_test.(!best)
      done;
      loop ()
    end
  in
  loop ();
  let kept = Array.of_list (List.sort compare !kept) in
  let rows = Array.map (fun t -> Patterns.vector pats t) kept in
  { kept; tests = Patterns.of_vectors ~n_inputs rows }

let reverse_order fl pats =
  let c = Fault_list.circuit fl in
  let n_inputs = Array.length (Circuit.inputs c) in
  if Patterns.n_inputs pats <> n_inputs then
    invalid_arg "Compact.reverse_order: pattern width mismatch";
  let nf = Fault_list.count fl in
  let ws = Faultsim.workspace c in
  let good = Faultsim.good_arena ws in
  let detected = Array.make nf false in
  let kept = ref [] in
  for t = Patterns.count pats - 1 downto 0 do
    let vec = Patterns.vector pats t in
    Faultsim.load_good ws good (Patterns.of_vectors ~n_inputs [| vec |]) 0;
    let useful = ref false in
    for fi = 0 to nf - 1 do
      if
        (not detected.(fi))
        && Int64.logand (Faultsim.detect_block ws ~good (Fault_list.get fl fi)) 1L = 1L
      then begin
        detected.(fi) <- true;
        useful := true
      end
    done;
    if !useful then kept := t :: !kept
  done;
  let kept = Array.of_list !kept in
  let rows = Array.map (fun t -> Patterns.vector pats t) kept in
  { kept; tests = Patterns.of_vectors ~n_inputs rows }
