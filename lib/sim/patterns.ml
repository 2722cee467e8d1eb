module Bitvec = Util.Bitvec
module Rng = Util.Rng

type t = { n_inputs : int; count : int; columns : Bitvec.t array }

let n_inputs t = t.n_inputs
let count t = t.count

let value t ~input ~pattern = Bitvec.get t.columns.(input) pattern
let column t i = t.columns.(i)

let word t ~input ~block =
  let w = Bitvec.words t.columns.(input) in
  if block < 0 || block >= Array.length w then invalid_arg "Patterns.word: block out of range";
  w.(block)

let blocks t = (t.count + 63) / 64

let of_vectors ~n_inputs rows =
  let cnt = Array.length rows in
  let columns = Array.init n_inputs (fun _ -> Bitvec.create cnt) in
  Array.iteri
    (fun p row ->
      if Array.length row <> n_inputs then
        invalid_arg "Patterns.of_vectors: row width mismatch";
      Array.iteri (fun i v -> if v then Bitvec.set columns.(i) p true) row)
    rows;
  { n_inputs; count = cnt; columns }

let vector t p = Array.init t.n_inputs (fun i -> value t ~input:i ~pattern:p)

let random rng ~n_inputs ~count =
  { n_inputs; count; columns = Array.init n_inputs (fun _ -> Bitvec.random rng count) }

let exhaustive ~n_inputs =
  if n_inputs > 24 then invalid_arg "Patterns.exhaustive: too many inputs";
  if n_inputs <= 0 then invalid_arg "Patterns.exhaustive: need at least one input";
  let cnt = 1 lsl n_inputs in
  let columns = Array.init n_inputs (fun _ -> Bitvec.create cnt) in
  for u = 0 to cnt - 1 do
    for i = 0 to n_inputs - 1 do
      (* First input is the most significant bit of u. *)
      if (u lsr (n_inputs - 1 - i)) land 1 = 1 then Bitvec.set columns.(i) u true
    done
  done;
  { n_inputs; count = cnt; columns }

let prefix t n =
  if n < 0 || n > t.count then invalid_arg "Patterns.prefix";
  let columns =
    Array.map
      (fun c ->
        let c' = Bitvec.create n in
        for p = 0 to n - 1 do
          if Bitvec.get c p then Bitvec.set c' p true
        done;
        c')
      t.columns
  in
  { t with count = n; columns }

let concat a b =
  if a.n_inputs <> b.n_inputs then invalid_arg "Patterns.concat: input width mismatch";
  let cnt = a.count + b.count in
  let columns =
    Array.init a.n_inputs (fun i ->
        let c = Bitvec.create cnt in
        for p = 0 to a.count - 1 do
          if Bitvec.get a.columns.(i) p then Bitvec.set c p true
        done;
        for p = 0 to b.count - 1 do
          if Bitvec.get b.columns.(i) p then Bitvec.set c (a.count + p) true
        done;
        c)
  in
  { n_inputs = a.n_inputs; count = cnt; columns }

let decimal t p =
  if t.n_inputs > 62 then invalid_arg "Patterns.decimal: too many inputs";
  let v = ref 0 in
  for i = 0 to t.n_inputs - 1 do
    v := (!v lsl 1) lor (if value t ~input:i ~pattern:p then 1 else 0)
  done;
  !v

let to_strings t =
  Array.init t.count (fun p ->
      String.init t.n_inputs (fun i -> if value t ~input:i ~pattern:p then '1' else '0'))

let of_strings rows =
  if Array.length rows = 0 then invalid_arg "Patterns.of_strings: empty";
  let w = String.length rows.(0) in
  let parse r =
    if String.length r <> w then invalid_arg "Patterns.of_strings: ragged rows";
    Array.init w (fun i ->
        match r.[i] with
        | '0' -> false
        | '1' -> true
        | c -> invalid_arg (Printf.sprintf "Patterns.of_strings: bad character %C" c))
  in
  of_vectors ~n_inputs:w (Array.map parse rows)

let load_file path =
  let ic = open_in path in
  let rows =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let acc = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" && line.[0] <> '#' then acc := line :: !acc
           done
         with End_of_file -> ());
        Array.of_list (List.rev !acc))
  in
  of_strings rows

let save_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      Array.iter (fun s -> output_string oc (s ^ "\n")) (to_strings t))
