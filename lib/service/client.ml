module Json = Util.Json
module Diagnostics = Util.Diagnostics
module Budget = Util.Budget
module Retry = Util.Retry
module Rng = Util.Rng
module Trace = Util.Trace
module Metrics = Util.Metrics

type t = {
  address : Server.address;
  policy : Retry.policy;
  clock : Budget.clock;
  sleep : float -> unit;
  rng : Rng.t;
  tracer : Trace.t;
  mutable fd : Unix.file_descr option;
  mutable retries : int;
  mutable next_id : int;
}

let default_policy = Retry.default

let create ?(policy = default_policy) ?(clock = Budget.default_clock)
    ?(sleep = Unix.sleepf) ?(seed = 1) ?(tracer = Trace.null) address =
  (* A peer vanishing mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  { address; policy; clock; sleep; rng = Rng.create seed; tracer; fd = None;
    retries = 0; next_id = 1 }

let retries t = t.retries

let close t =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fd;
  t.fd <- None

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Normalised connect-failure message (no errno text), so failure
   modes are deterministic across platforms — pinned by the cram
   suite. *)
let connect_fd address =
  let fail_connect name = Diagnostics.fail Diagnostics.Io_error "cannot connect to %s" name in
  match address with
  | Server.Unix_socket path -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      with Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail_connect path)
  | Server.Tcp (host, port) -> (
      let name = Printf.sprintf "%s:%d" host port in
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) -> fail_connect name
          | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_INET (inet, port));
        fd
      with Unix.Unix_error (_, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail_connect name)

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = connect_fd t.address in
      t.fd <- Some fd;
      fd

let await_reply fd ~budget =
  let rec wait () =
    let timeout_s =
      if Budget.is_unlimited budget then -1.0
      else Float.max 0.0 (Budget.remaining_s budget)
    in
    match Unix.select [ fd ] [] [] timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | [], _, _ ->
        Diagnostics.fail Diagnostics.Budget_expired "no reply before the request deadline"
    | _ -> (
        match Protocol.read_frame fd with
        | Some payload -> payload
        | None -> Diagnostics.fail Diagnostics.Io_error "server closed the connection")
  in
  wait ()

(* What is worth a reconnect-and-resend: transport failures, broken
   or corrupt framing, a timed-out attempt, and overload sheds.  A
   typed application error (bad flag, budget reply, …) is a real
   answer and is returned, not retried. *)
let transient = function
  | Diagnostics.Failed d -> (
      match d.Diagnostics.code with
      | Diagnostics.Io_error | Diagnostics.Protocol | Diagnostics.Budget_expired
      | Diagnostics.Overload ->
          true
      | _ -> false)
  | Unix.Unix_error _ | Sys_error _ | End_of_file -> true
  | _ -> false

let note_retry t ~attempt:_ ~delay_s:_ _exn =
  t.retries <- t.retries + 1;
  if Trace.enabled t.tracer then Metrics.incr (Trace.counter t.tracer "client.retries")

let policy_for t timeout_s =
  match timeout_s with
  | None -> t.policy
  | Some s -> { t.policy with Retry.overall_budget_s = Some s }

let with_retry t ?timeout_s f =
  Retry.run ~clock:t.clock ~sleep:t.sleep ~rng:t.rng ~on_retry:(note_retry t)
    (policy_for t timeout_s) ~retryable:transient f

(* One attempt: send, await, decode, match the id.  Any failure leaves
   the stream in an unknown state (a stale reply could otherwise answer
   the next request), so the connection is dropped before the retry. *)
let exchange t ~budget ~id payload =
  let fd = ensure_connected t in
  let resp =
    try
      Protocol.write_frame fd payload;
      match Result.bind (Json.of_string (await_reply fd ~budget)) Protocol.response_of_json with
      | Error msg -> Diagnostics.fail Diagnostics.Protocol "unreadable reply: %s" msg
      | Ok resp when resp.Protocol.id <> id ->
          Diagnostics.fail Diagnostics.Protocol "reply id %d does not match request id %d"
            resp.Protocol.id id
      | Ok resp -> resp
    with e ->
      close t;
      raise e
  in
  (* A shed reply is a backoff signal, not an answer. *)
  match resp.Protocol.payload with
  | Error e when e.Protocol.code = Diagnostics.code_string Diagnostics.Overload ->
      Diagnostics.fail Diagnostics.Overload "%s" e.Protocol.message
  | payload -> payload

(* --- the generic entry points ------------------------------------- *)

let call_exn t ?timeout_s call =
  let id = fresh_id t in
  let payload = Json.to_string (Protocol.request_to_json { Protocol.id; call }) in
  with_retry t ?timeout_s (fun ~attempt:_ ~budget -> exchange t ~budget ~id payload)

let call t ?timeout_s c =
  match call_exn t ?timeout_s c with
  | Ok reply -> Ok reply
  | Error e -> Error (Protocol.diagnostic_of_error e)
  | exception Diagnostics.Failed d -> Error d

(* --- thin wrappers ------------------------------------------------ *)

let unexpected_shape what =
  Error (Diagnostics.make Diagnostics.Protocol (Printf.sprintf "unexpected reply shape for %s" what))

let single t ?timeout_s op params =
  match call t ?timeout_s (Protocol.Single (op, params)) with
  | Ok (Protocol.Result j) -> Ok j
  | Ok _ -> unexpected_shape (Protocol.op_name op)
  | Error d -> Error d

let load t ?timeout_s params = single t ?timeout_s Protocol.Load params
let adi t ?timeout_s params = single t ?timeout_s Protocol.Adi params
let order t ?timeout_s params = single t ?timeout_s Protocol.Order params
let atpg t ?timeout_s params = single t ?timeout_s Protocol.Atpg params
let diagnose t ?timeout_s params = single t ?timeout_s Protocol.Diagnose params
let stats t ?timeout_s () = single t ?timeout_s Protocol.Stats []
let health t ?timeout_s () = single t ?timeout_s Protocol.Health []
let evict t ?timeout_s params = single t ?timeout_s Protocol.Evict params
let shutdown t ?timeout_s () = single t ?timeout_s Protocol.Shutdown []

let batch t ?timeout_s op items =
  if not (Protocol.batchable op) then
    invalid_arg (Printf.sprintf "Client.batch: op %s has no batch form" (Protocol.op_name op));
  match call t ?timeout_s (Protocol.Batch (op, items)) with
  | Ok (Protocol.Batch_replies rs) -> Ok rs
  | Ok _ -> unexpected_shape ("batch_" ^ Protocol.op_name op)
  | Error d -> Error d
