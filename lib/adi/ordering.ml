module Bitvec = Util.Bitvec
module Heap = Util.Heap

type kind = Orig | Incr0 | Decr | Decr0 | Dynm | Dynm0

let all = [ Orig; Incr0; Decr; Decr0; Dynm; Dynm0 ]

let to_string = function
  | Orig -> "orig"
  | Incr0 -> "incr0"
  | Decr -> "decr"
  | Decr0 -> "0decr"
  | Dynm -> "dynm"
  | Dynm0 -> "0dynm"

let of_string s = List.find_opt (fun k -> String.equal (to_string k) s) all

let split_zero (t : Adi_index.t) =
  let zeros = ref [] and detected = ref [] in
  for fi = Fault_list.count t.fault_list - 1 downto 0 do
    if t.adi.(fi) = 0 then zeros := fi :: !zeros else detected := fi :: !detected
  done;
  (!zeros, !detected)

(* Stable sort of detected faults by ADI; [dir] +1 = decreasing. *)
let sort_by_adi (t : Adi_index.t) dir detected =
  List.stable_sort
    (fun a b ->
      let c = compare t.adi.(b) t.adi.(a) * dir in
      if c <> 0 then c else compare a b)
    detected

(* The dynamic procedure: greedily extract the max-ADI fault, then
   retire it from every ndet(u) count it participates in.  Lazy
   deletion is sound because ndet only decreases. *)
let dynamic (t : Adi_index.t) detected =
  let ndet = Array.copy t.ndet in
  let current_adi fi =
    let m = ref max_int in
    Bitvec.iter_set t.dsets.(fi) (fun u -> if ndet.(u) < !m then m := ndet.(u));
    if !m = max_int then 0 else !m
  in
  let heap = Heap.create () in
  List.iter (fun fi -> Heap.push heap ~key:t.adi.(fi) fi) detected;
  let placed = Array.make (Fault_list.count t.fault_list) false in
  let out = ref [] in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (key, fi) ->
        if not placed.(fi) then begin
          let cur = current_adi fi in
          if cur < key then Heap.push heap ~key:cur fi
          else begin
            placed.(fi) <- true;
            out := fi :: !out;
            Bitvec.iter_set t.dsets.(fi) (fun u -> ndet.(u) <- ndet.(u) - 1)
          end
        end;
        drain ()
  in
  drain ();
  List.rev !out

let order kind (t : Adi_index.t) =
  let zeros, detected = split_zero t in
  let seq =
    match kind with
    | Orig -> List.init (Fault_list.count t.fault_list) Fun.id
    | Incr0 -> sort_by_adi t (-1) detected @ zeros
    | Decr -> sort_by_adi t 1 detected @ zeros
    | Decr0 -> zeros @ sort_by_adi t 1 detected
    | Dynm -> dynamic t detected @ zeros
    | Dynm0 -> zeros @ dynamic t detected
  in
  Array.of_list seq

let dynamic_reference ~zero_first (t : Adi_index.t) =
  let zeros, detected = split_zero t in
  let ndet = Array.copy t.ndet in
  let current_adi fi =
    let m = ref max_int in
    Bitvec.iter_set t.dsets.(fi) (fun u -> if ndet.(u) < !m then m := ndet.(u));
    if !m = max_int then 0 else !m
  in
  let remaining = ref detected and out = ref [] in
  while !remaining <> [] do
    let best =
      List.fold_left
        (fun acc fi ->
          let a = current_adi fi in
          match acc with Some (ba, _) when ba >= a -> acc | _ -> Some (a, fi))
        None !remaining
    in
    match best with
    | None -> assert false
    | Some (_, fi) ->
        out := fi :: !out;
        remaining := List.filter (fun g -> g <> fi) !remaining;
        Bitvec.iter_set t.dsets.(fi) (fun u -> ndet.(u) <- ndet.(u) - 1)
  done;
  let dyn = List.rev !out in
  Array.of_list (if zero_first then zeros @ dyn else dyn @ zeros)
