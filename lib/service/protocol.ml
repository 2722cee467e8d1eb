module Json = Util.Json
module Diagnostics = Util.Diagnostics

type params = (string * Json.t) list

type op = Load | Adi | Order | Atpg | Diagnose | Stats | Health | Evict | Shutdown

let op_name = function
  | Load -> "load"
  | Adi -> "adi"
  | Order -> "order"
  | Atpg -> "atpg"
  | Diagnose -> "diagnose"
  | Stats -> "stats"
  | Health -> "health"
  | Evict -> "evict"
  | Shutdown -> "shutdown"

let base_ops = [ Load; Adi; Order; Atpg; Diagnose; Stats; Health; Evict; Shutdown ]

let op_of_name s = List.find_opt (fun o -> String.equal (op_name o) s) base_ops

let batchable = function Adi | Order | Atpg | Diagnose -> true | _ -> false

type call = Single of op * params | Batch of op * params list

type request = { id : int; call : call }

let call_name = function
  | Single (op, _) -> op_name op
  | Batch (op, _) -> "batch_" ^ op_name op

let single ?(id = 1) name params =
  match op_of_name name with
  | Some op -> { id; call = Single (op, params) }
  | None -> invalid_arg (Printf.sprintf "Protocol.single: unknown op %S" name)

let ops =
  List.map op_name base_ops
  @ List.filter_map
      (fun o -> if batchable o then Some ("batch_" ^ op_name o) else None)
      base_ops

type error = { code : string; message : string }

type reply = Result of Json.t | Batch_replies of (Json.t, error) result list

type response = { id : int; payload : (reply, error) result }

type decode_error = Malformed of string | Unknown_op of { id : int; op : string }

(* --- requests ----------------------------------------------------- *)

(* Parameter objects never carry the envelope fields; stripping them
   here makes decode(encode(r)) the identity even for hostile input. *)
let strip_envelope fields = List.filter (fun (k, _) -> k <> "id" && k <> "op") fields

let request_to_json (r : request) =
  let envelope op tail = Json.Obj (("id", Json.Int r.id) :: ("op", Json.Str op) :: tail) in
  match r.call with
  | Single (op, params) -> envelope (op_name op) params
  | Batch (op, items) ->
      envelope ("batch_" ^ op_name op)
        [ ("requests", Json.Arr (List.map (fun p -> Json.Obj p) items)) ]

let decode_batch_items params =
  match List.assoc_opt "requests" params with
  | None -> Error (Malformed "batch request has no \"requests\" array")
  | Some (Json.Arr items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Obj fields :: rest -> go (strip_envelope fields :: acc) rest
        | _ -> Error (Malformed "every \"requests\" element must be a parameter object")
      in
      go [] items
  | Some _ -> Error (Malformed "\"requests\" must be an array of parameter objects")

let request_of_json j =
  match j with
  | Json.Obj fields -> (
      match Option.bind (List.assoc_opt "op" fields) Json.to_str with
      | None -> Error (Malformed "request has no \"op\" field")
      | Some name -> (
          let id =
            Option.value ~default:0 (Option.bind (List.assoc_opt "id" fields) Json.to_int)
          in
          let params = strip_envelope fields in
          let wrap call = Ok { id; call } in
          match op_of_name name with
          | Some op -> wrap (Single (op, params))
          | None -> (
              let batch_base =
                if String.length name > 6 && String.sub name 0 6 = "batch_" then
                  op_of_name (String.sub name 6 (String.length name - 6))
                else None
              in
              match batch_base with
              | Some op when batchable op ->
                  Result.bind (decode_batch_items params) (fun items -> wrap (Batch (op, items)))
              | _ -> Error (Unknown_op { id; op = name }))))
  | _ -> Error (Malformed "request is not a JSON object")

(* --- responses ---------------------------------------------------- *)

let error_to_json e =
  Json.Obj [ ("code", Json.Str e.code); ("message", Json.Str e.message) ]

let item_to_json = function
  | Ok result -> Json.Obj [ ("ok", Json.Bool true); ("result", result) ]
  | Error e -> Json.Obj [ ("ok", Json.Bool false); ("error", error_to_json e) ]

let response_to_json r =
  let tail =
    match r.payload with
    | Ok (Result result) -> [ ("ok", Json.Bool true); ("result", result) ]
    | Ok (Batch_replies items) ->
        [ ("ok", Json.Bool true); ("batch", Json.Arr (List.map item_to_json items)) ]
    | Error e -> [ ("ok", Json.Bool false); ("error", error_to_json e) ]
  in
  Json.Obj (("id", Json.Int r.id) :: tail)

let error_of_json err =
  let str k = Option.bind (Json.member k err) Json.to_str in
  { code = Option.value ~default:"E-protocol" (str "code");
    message = Option.value ~default:"unknown error" (str "message") }

let item_of_json j =
  match Option.bind (Json.member "ok" j) Json.to_bool with
  | Some true -> (
      match Json.member "result" j with
      | Some result -> Ok (Ok result)
      | None -> Error "batch element has no \"result\"")
  | Some false -> (
      match Json.member "error" j with
      | Some err -> Ok (Error (error_of_json err))
      | None -> Error "batch element has no \"error\"")
  | None -> Error "batch element has no boolean \"ok\""

let response_of_json j =
  match j with
  | Json.Obj fields -> (
      let id =
        Option.value ~default:0 (Option.bind (List.assoc_opt "id" fields) Json.to_int)
      in
      match Option.bind (List.assoc_opt "ok" fields) Json.to_bool with
      | Some true -> (
          match (List.assoc_opt "result" fields, List.assoc_opt "batch" fields) with
          | Some result, _ -> Ok { id; payload = Ok (Result result) }
          | None, Some (Json.Arr items) ->
              let rec go acc = function
                | [] -> Ok { id; payload = Ok (Batch_replies (List.rev acc)) }
                | item :: rest -> (
                    match item_of_json item with
                    | Ok r -> go (r :: acc) rest
                    | Error msg -> Error msg)
              in
              go [] items
          | None, Some _ -> Error "\"batch\" is not an array"
          | None, None -> Error "success response has no \"result\" or \"batch\"")
      | Some false -> (
          match List.assoc_opt "error" fields with
          | Some err -> Ok { id; payload = Error (error_of_json err) }
          | None -> Error "failure response has no \"error\"")
      | None -> Error "response has no boolean \"ok\"")
  | _ -> Error "response is not a JSON object"

let error_of_diagnostic (d : Diagnostics.t) =
  { code = Diagnostics.code_string d.Diagnostics.code; message = d.Diagnostics.message }

let diagnostic_of_error e =
  match Diagnostics.code_of_string e.code with
  | Some code -> Diagnostics.make code e.message
  | None ->
      Diagnostics.make Diagnostics.Protocol (Printf.sprintf "%s [%s]" e.message e.code)

(* --- answering frames ---------------------------------------------- *)

let protocol_error id message =
  { id; payload = Error { code = Diagnostics.code_string Diagnostics.Protocol; message } }

(* A frame's request, or the typed E-protocol reply it earns instead. *)
let decode_frame payload =
  let decoded =
    match Json.of_string payload with
    | Error msg -> Error (Malformed msg)
    | Ok json -> request_of_json json
  in
  match decoded with
  | Ok req -> Ok req
  | Error (Malformed msg) -> Error (protocol_error 0 (Printf.sprintf "malformed request: %s" msg))
  | Error (Unknown_op { id; op }) ->
      Error
        (protocol_error id
           (Printf.sprintf "unknown op %S (expected one of: %s)" op (String.concat ", " ops)))

let answer_frame ~rejected handle payload =
  let response, directive =
    match decode_frame payload with
    | Error response ->
        rejected ();
        (response, `Continue)
    | Ok req -> (
        let response = handle req in
        match (req.call, response.payload) with
        | Single (Shutdown, _), Ok _ -> (response, `Shutdown)
        | _ -> (response, `Continue))
  in
  (Json.to_string (response_to_json response), directive)

let shed_reply ~message payload =
  let id = match decode_frame payload with Ok req -> req.id | Error response -> response.id in
  Json.to_string
    (response_to_json
       { id; payload = Error { code = Diagnostics.code_string Diagnostics.Overload; message } })

(* --- framing ------------------------------------------------------ *)

let max_frame_bytes = 64 * 1024 * 1024

let fail_protocol fmt = Diagnostics.fail Diagnostics.Protocol fmt

let write_all fd bytes =
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    match Unix.write fd bytes !written (n - !written) with
    | 0 -> Diagnostics.fail Diagnostics.Io_error "connection closed mid-write"
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Diagnostics.fail Diagnostics.Io_error "connection closed by peer"
  done

(* Frame layout: 4-byte big-endian payload length, 16-byte MD5 digest
   of the payload, payload.  The digest turns in-flight corruption into
   a typed E-protocol failure instead of a silently wrong reply. *)
let header_bytes = 20

let write_frame fd payload =
  Util.Failpoint.check "protocol.write";
  let n = String.length payload in
  if n > max_frame_bytes then fail_protocol "frame of %d bytes exceeds the %d-byte limit" n max_frame_bytes;
  let frame = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string (Digest.string payload) 0 frame 4 16;
  Bytes.blit_string payload 0 frame header_bytes n;
  (* Chaos: flip a wire byte past the length word (digest or payload —
     the reader must detect either), or tear the frame mid-write. *)
  Util.Failpoint.corrupt_bytes "protocol.write" ~off:4 frame;
  if Util.Failpoint.fires "protocol.torn" then begin
    write_all fd (Bytes.sub frame 0 ((header_bytes + n) / 2));
    Diagnostics.fail Diagnostics.Io_error "injected torn write at failpoint protocol.torn"
  end;
  write_all fd frame

(* Read exactly [n] bytes; [`Eof] only when the stream ends before the
   first byte (a clean close between frames). *)
let read_exactly fd n ~header =
  let buf = Bytes.create n in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    match Unix.read fd buf !got (n - !got) with
    | 0 -> eof := true
    | k -> got := !got + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> eof := true
  done;
  if !got = n then `Bytes buf
  else if !got = 0 && header then `Eof
  else fail_protocol "truncated frame (got %d of %d bytes)" !got n

let read_frame fd =
  Util.Failpoint.check "protocol.read";
  match read_exactly fd header_bytes ~header:true with
  | `Eof -> None
  | `Bytes hdr ->
      let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if n < 0 || n > max_frame_bytes then
        fail_protocol "frame length %d outside [0, %d]" n max_frame_bytes;
      let digest = Bytes.sub_string hdr 4 16 in
      let payload =
        if n = 0 then ""
        else
          match read_exactly fd n ~header:false with
          | `Eof -> assert false
          | `Bytes payload -> Bytes.unsafe_to_string payload
      in
      if not (String.equal (Digest.string payload) digest) then
        fail_protocol "frame digest mismatch (corrupt frame)";
      Some payload
