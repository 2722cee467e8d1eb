(* Flat, cache-friendly word storage for the wide-block simulators.

   A [Wordvec.t] is a C-layout [Bigarray] of [int64] words: unboxed
   element storage in one contiguous malloc'd block, outside the OCaml
   heap, so a simulation arena of [node_count * width] words has no
   per-element boxes and no GC scanning cost.  The fused kernels below
   make one pass over their operands with [unsafe_get]/[unsafe_set] —
   bounds are checked once per call, not once per word. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t =
  if n < 0 then invalid_arg "Wordvec.create";
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0L;
  a

let length (t : t) = Bigarray.Array1.dim t
let get (t : t) i : int64 = Bigarray.Array1.get t i
let set (t : t) i (v : int64) = Bigarray.Array1.set t i v
let unsafe_get (t : t) i : int64 = Bigarray.Array1.unsafe_get t i
let unsafe_set (t : t) i (v : int64) = Bigarray.Array1.unsafe_set t i v
let fill (t : t) (v : int64) = Bigarray.Array1.fill t v
let sub (t : t) pos len : t = Bigarray.Array1.sub t pos len

let blit ~src ~dst =
  if length src <> length dst then invalid_arg "Wordvec.blit: length mismatch";
  Bigarray.Array1.blit src dst
