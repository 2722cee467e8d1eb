type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let state t = t.state

let restore state = { state }

(* splitmix64 finaliser: mix the incremented counter into 64 output bits. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = s }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    (* Rejection sampling on 62 bits to avoid modulo bias. *)
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let rec loop () =
      let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) land mask in
      let v = r mod bound in
      if r - v > mask - bound + 1 then loop () else v
    in
    loop ()
  end

let bool t = Int64.logand (int64 t) 1L = 1L

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
