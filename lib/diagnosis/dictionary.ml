(* Compact fault dictionary: per-fault detection signatures over a
   fixed test set, with per-output slices for response-level matching.
   Built from the non-dropping event kernel on the collapsed probe
   universe, so the signature of fault [f] is exactly row [f] of
   [Faultsim.detection_sets]. *)

module Bitvec = Util.Bitvec
module Parallel = Util.Parallel
module Trace = Util.Trace

let magic = "ADI-DICT"
let version = 1

type t = {
  circuit_digest : string;
  tests : Patterns.t;
  names : string array;  (* per fault, Fault.to_string *)
  signatures : Bitvec.t array;  (* per fault, its failing-test set *)
  slices : (int * Bitvec.t) array array;
      (* per fault, sparse per-output failing-test sets: pairs
         (output index, failing tests at that output), ascending by
         output index, zero rows omitted *)
  good_out : Bitvec.t array;  (* per output, fault-free value column *)
}

let digest_of_circuit c = Digest.to_hex (Digest.string (Marshal.to_string c []))

let fault_count t = Array.length t.signatures
let test_count t = Patterns.count t.tests
let output_count t = Array.length t.good_out
let tests t = t.tests
let circuit_digest t = t.circuit_digest
let name t fi = t.names.(fi)
let signature t fi = t.signatures.(fi)
let slices t fi = t.slices.(fi)
let good_output t oi = t.good_out.(oi)

(* Failing tests of fault [fi] at output [oi] (empty row if the fault
   never corrupts that output). *)
let output_fails t fi oi =
  let row = t.slices.(fi) in
  let rec find lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let o, bv = row.(mid) in
      if o = oi then Some bv else if o < oi then find (mid + 1) hi else find lo mid
  in
  find 0 (Array.length row)

let block_mask count b =
  let cnt = count - (b * 64) in
  if cnt >= 64 then -1L else Int64.sub (Int64.shift_left 1L cnt) 1L

let build ?(jobs = 1) ?(block_width = 1) fl pats =
  let c = Fault_list.circuit fl in
  let nf = Fault_list.count fl in
  let nt = Patterns.count pats in
  let nout = Array.length (Circuit.outputs c) in
  let tr = Trace.current () in
  Trace.span tr
    ~attrs:
      [ ("faults", Trace.Int nf); ("tests", Trace.Int nt);
        ("outputs", Trace.Int nout); ("jobs", Trace.Int jobs);
        ("block_width", Trace.Int block_width) ]
    "diagnosis.build"
  @@ fun () ->
  let width = block_width in
  let signatures = Array.init nf (fun _ -> Bitvec.create nt) in
  let dense = Array.init nf (fun _ -> Array.init nout (fun _ -> Bitvec.create nt)) in
  let good_out = Goodsim.outputs c pats in
  let nblocks = Patterns.blocks pats in
  let nsb = (nblocks + width - 1) / width in
  (* Mirrors [Faultsim.detection_sets]: each lane owns a static
     slice of the pattern superblocks and writes only its blocks'
     words, so the result is bit-identical for any [jobs] and any
     [block_width]. *)
  Parallel.with_pool ~jobs (fun pool ->
      let k = min (Parallel.jobs pool) (max nsb 1) in
      let wss = Array.init k (fun _ -> Faultsim.workspace ~width c) in
      Parallel.run pool
        (Array.init k (fun lane ->
             fun () ->
              let ws = wss.(lane) in
              let good = Faultsim.good_arena ws in
              let out = Array.make (nout * width) 0L in
              for sb = lane * nsb / k to ((lane + 1) * nsb / k) - 1 do
                Faultsim.load_good ws good pats sb;
                let b0 = sb * width in
                let lim = min width (nblocks - b0) in
                for fi = 0 to nf - 1 do
                  let det =
                    Faultsim.detect_block_outputs ws ~good ~out (Fault_list.get fl fi)
                  in
                  for w = 0 to lim - 1 do
                    let b = b0 + w in
                    let mask = block_mask nt b in
                    let d = Int64.logand det.(w) mask in
                    if d <> 0L then begin
                      (Bitvec.words signatures.(fi)).(b) <- d;
                      let row = dense.(fi) in
                      for oi = 0 to nout - 1 do
                        let x = Int64.logand out.((oi * width) + w) mask in
                        if x <> 0L then (Bitvec.words row.(oi)).(b) <- x
                      done
                    end
                  done
                done
              done));
      Faultsim.publish_stats tr wss);
  let slices =
    Array.map
      (fun row ->
        let acc = ref [] in
        for oi = nout - 1 downto 0 do
          if not (Bitvec.is_zero row.(oi)) then acc := (oi, row.(oi)) :: !acc
        done;
        Array.of_list !acc)
      dense
  in
  let names = Array.init nf (fun fi -> Fault.to_string c (Fault_list.get fl fi)) in
  { circuit_digest = digest_of_circuit c; tests = pats; names; signatures; slices; good_out }

let equal a b =
  a.circuit_digest = b.circuit_digest
  && Patterns.to_strings a.tests = Patterns.to_strings b.tests
  && a.names = b.names
  && Array.length a.signatures = Array.length b.signatures
  && Array.for_all2 Bitvec.equal a.signatures b.signatures
  && Array.length a.slices = Array.length b.slices
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 (fun (oa, va) (ob, vb) -> oa = ob && Bitvec.equal va vb) ra rb)
       a.slices b.slices
  && Array.length a.good_out = Array.length b.good_out
  && Array.for_all2 Bitvec.equal a.good_out b.good_out

(* --- equivalence classes and resolution --------------------------- *)

(* Faults grouped by identical signature — the dictionary's diagnostic
   limit: members of one class are indistinguishable under this test
   set (pass/fail granularity). *)
let classes t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun fi s ->
      let key = Marshal.to_string (Bitvec.words s) [] in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := fi :: !cell
      | None ->
          let cell = ref [ fi ] in
          Hashtbl.add tbl key cell;
          order := cell :: !order)
    t.signatures;
  Array.of_list (List.rev_map (fun cell -> Array.of_list (List.rev !cell)) !order)

let resolution t = Array.length (classes t)

(* --- spill -------------------------------------------------------- *)

(* Same discipline as [Service.Store]: a digest line over the
   marshalled payload guards the unmarshal; any mismatch (truncation,
   foreign bytes, wrong version) reads as [None], never an error. *)
let save t path =
  let payload = Marshal.to_string t [] in
  let digest = Digest.to_hex (Digest.string payload) in
  Util.Atomic_file.write path (fun oc ->
      Printf.fprintf oc "%s v%d\n%s\n" magic version digest;
      output_string oc payload)

let load path : t option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let header = input_line ic in
            if header <> Printf.sprintf "%s v%d" magic version then None
            else begin
              let digest = input_line ic in
              let len = in_channel_length ic - pos_in ic in
              if len < 0 then None
              else
                let payload = really_input_string ic len in
                if digest <> Digest.to_hex (Digest.string payload) then None
                else Some (Marshal.from_string payload 0 : t)
            end
          with Failure _ | End_of_file | Sys_error _ -> None)
