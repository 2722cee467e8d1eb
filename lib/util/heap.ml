type t = { mutable size : int; mutable keys : int array; mutable data : int array }

let create () = { size = 0; keys = [||]; data = [||] }

(* Max-heap order: higher key first; ties -> smaller payload first. *)
let above t i j =
  let ki : int = t.keys.(i) and kj : int = t.keys.(j) in
  ki > kj || (ki = kj && (t.data.(i) : int) < t.data.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let grow t =
  let cap = max 8 (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and data = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.keys <- keys;
  t.data <- data

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if above t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && above t l !best then best := l;
  if r < t.size && above t r !best then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let push t ~key v =
  if t.size = Array.length t.keys then grow t;
  t.keys.(t.size) <- key;
  t.data.(t.size) <- v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let k = t.keys.(0) and v = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (k, v)
  end
