module Diagnostics = Util.Diagnostics

let magic = "ADI-ATPG-CKPT"

(* v3: a digest line over the marshalled snapshot.  Marshal offers no
   integrity of its own and unmarshalling corrupted bytes is unsafe, so
   the payload is verified before a single byte is deserialised.
   v4: the constant [generator] field is gone. *)
let version = 4

type t = {
  circuit_title : string;
  circuit_digest : string;
  seed : int;
  order_kind : string;
  backtrack_limit : int;
  retries : int;
  order : int array;
  snapshot : Engine.snapshot;
}

let digest_of_circuit c = Digest.to_hex (Digest.string (Bench_format.to_string c))

(* Durable atomic publish: the temp file is fsynced before the rename
   (and the directory after), so a crash mid-save can never leave a
   truncated checkpoint under the final name — at worst a stale .tmp. *)
let save path t =
  let payload = Marshal.to_string t [] in
  Util.Atomic_file.write path (fun oc ->
      Printf.fprintf oc "%s v%d\n" magic version;
      Util.Failpoint.check "checkpoint.save";
      Printf.fprintf oc "%s\n" (Digest.to_hex (Digest.string payload));
      output_string oc payload)

let load path =
  let fail code fmt = Diagnostics.fail ~loc:{ file = Some path; line = 0 } code fmt in
  let ic =
    try open_in_bin path
    with Sys_error msg -> Diagnostics.fail Diagnostics.Io_error "%s" msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        let header = try input_line ic with End_of_file -> "" in
        (match String.split_on_char ' ' header with
        | [ m; v ] when m = magic ->
            if v <> Printf.sprintf "v%d" version then
              fail Diagnostics.Checkpoint_format
                "unsupported checkpoint version %s (this build reads v%d)" v version
        | _ ->
            fail Diagnostics.Checkpoint_format
              "not an %s checkpoint (bad header %S)" magic header);
        let digest = try input_line ic with End_of_file -> "" in
        let len = in_channel_length ic - pos_in ic in
        let payload = if len <= 0 then "" else really_input_string ic len in
        if digest <> Digest.to_hex (Digest.string payload) then
          fail Diagnostics.Checkpoint_format
            "corrupt checkpoint payload (digest mismatch)";
        (Marshal.from_string payload 0 : t)
      with
      | Failure _ | End_of_file ->
          fail Diagnostics.Checkpoint_format "truncated or corrupt checkpoint payload"
      | Sys_error msg ->
          fail Diagnostics.Checkpoint_format "unreadable checkpoint (%s)" msg)

let matches ck ~circuit ~seed ~order_kind ~backtrack_limit ~retries ~order =
  let mismatch what = Error (Printf.sprintf "checkpoint was taken with a different %s" what) in
  if ck.circuit_digest <> digest_of_circuit circuit then mismatch "circuit"
  else if ck.seed <> seed then mismatch "seed"
  else if ck.order_kind <> order_kind then mismatch "fault order"
  else if ck.backtrack_limit <> backtrack_limit then mismatch "backtrack limit"
  else if ck.retries <> retries then mismatch "retry count"
  else if ck.order <> order then mismatch "fault ordering"
  else Ok ()
