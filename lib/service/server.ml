module Diagnostics = Util.Diagnostics

type address = Unix_socket of string | Tcp of string * int

let address_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type directive = [ `Continue | `Shutdown ]

type backend = {
  handle : string -> string * directive;
  shed : string -> string;
  on_queue_depth : int -> unit;
  on_inflight : int -> unit;
  on_lane_restart : unit -> unit;
  set_runtime : (unit -> (string * Util.Json.t) list) -> unit;
}

type t = {
  backend : backend;
  address : address;
  workers : int;
  backlog : int;
  poll_interval_s : float;
  max_inflight : int;
  queue_wait_s : float;
  stop : bool Atomic.t;
  busy : int Atomic.t;  (* connections currently being served *)
  inflight : int Atomic.t;  (* requests currently inside a handler *)
  lane_restarts : int Atomic.t;  (* accept lanes revived after dying *)
}

let create ?(workers = 4) ?(backlog = 16) ?(poll_interval_s = 0.05) ?max_inflight
    ?(queue_wait_s = 0.1) backend address =
  if workers < 1 then invalid_arg "Server.create: workers must be at least 1";
  if backlog < 1 then invalid_arg "Server.create: backlog must be at least 1";
  let max_inflight = Option.value max_inflight ~default:workers in
  if max_inflight < 1 then invalid_arg "Server.create: max_inflight must be at least 1";
  if queue_wait_s < 0.0 then invalid_arg "Server.create: queue_wait_s must be non-negative";
  { backend; address; workers; backlog; poll_interval_s; max_inflight; queue_wait_s;
    stop = Atomic.make false; busy = Atomic.make 0; inflight = Atomic.make 0;
    lane_restarts = Atomic.make 0 }

let request_stop t = Atomic.set t.stop true
let lane_restarts t = Atomic.get t.lane_restarts

(* --- listening socket --------------------------------------------- *)

let bind_listener t =
  let domain, addr =
    match t.address with
    | Unix_socket path ->
        (* Replace a stale socket file from a previous run; refuse to
           unlink anything that is not a socket. *)
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
        | _ -> Diagnostics.fail Diagnostics.Io_error "%s exists and is not a socket" path
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                Diagnostics.fail Diagnostics.Io_error "cannot resolve %s" host
            | { Unix.h_addr_list; _ } -> h_addr_list.(0))
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     (match t.address with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_socket _ -> ());
     Unix.bind fd addr;
     Unix.listen fd t.backlog;
     Unix.set_nonblock fd
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Diagnostics.fail Diagnostics.Io_error "cannot listen on %s: %s"
       (address_to_string t.address) (Unix.error_message err));
  fd

(* --- admission control -------------------------------------------- *)

let try_acquire t =
  let rec go () =
    let n = Atomic.get t.inflight in
    if n >= t.max_inflight then false
    else if Atomic.compare_and_set t.inflight n (n + 1) then true
    else go ()
  in
  go ()

(* Wait up to the queue-wait deadline for an in-flight slot; a request
   that cannot be admitted in time is shed, which keeps the queue
   short and the latency of admitted requests bounded. *)
let admit t =
  try_acquire t
  || begin
       let deadline = Util.Budget.of_seconds t.queue_wait_s in
       let rec wait () =
         if try_acquire t then true
         else if Util.Budget.expired deadline || Atomic.get t.stop then false
         else begin
           Unix.sleepf 0.002;
           wait ()
         end
       in
       wait ()
     end

(* --- per-connection serving --------------------------------------- *)

(* One request-reply exchange at a time per connection.  Between
   frames the lane polls the stop flag, so a drain waits only for the
   request in flight, never for an idle client. *)
let serve_connection t conn =
  Atomic.incr t.busy;
  t.backend.on_queue_depth (Atomic.get t.busy);
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.busy;
      try Unix.close conn with Unix.Unix_error _ -> ())
    (fun () ->
      let rec exchange () =
        if not (Atomic.get t.stop) then
          match Unix.select [ conn ] [] [] t.poll_interval_s with
          | [], _, _ -> exchange ()
          | _ -> (
              match Protocol.read_frame conn with
              | None -> ()
              | Some payload ->
                  if admit t then begin
                    let reply, directive =
                      Fun.protect
                        ~finally:(fun () -> Atomic.decr t.inflight)
                        (fun () ->
                          t.backend.on_inflight (Atomic.get t.inflight);
                          t.backend.handle payload)
                    in
                    Protocol.write_frame conn reply;
                    match directive with
                    | `Shutdown -> Atomic.set t.stop true
                    | `Continue -> exchange ()
                  end
                  else begin
                    Protocol.write_frame conn (t.backend.shed payload);
                    exchange ()
                  end)
      in
      (* A broken or misbehaving client kills its connection, never
         the worker lane. *)
      try exchange ()
      with
      | Diagnostics.Failed _ | End_of_file
      | Unix.Unix_error (_, _, _)
      | Sys_error _
      -> ())

let accept_loop t listener should_stop =
  let stop_now () = Atomic.get t.stop || should_stop () in
  let rec loop () =
    if not (stop_now ()) then begin
      (* Chaos: kill this lane before it touches the listener, so an
         injected death never leaks an accepted connection. *)
      Util.Failpoint.check "server.accept";
      (match Unix.select [ listener ] [] [] t.poll_interval_s with
      | [], _, _ -> ()
      | _ -> (
          (* Lanes race on accept; the losers see EAGAIN and re-poll. *)
          match Unix.accept ~cloexec:true listener with
          | conn, _ -> serve_connection t conn
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            -> ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()));
      loop ()
    end
  in
  (* Supervise the lane: a dying lane (injected fault, unexpected
     exception from the accept path) is counted and restarted, so the
     listener keeps its full complement of lanes, [serve] returns
     normally on drain, and the socket file is always cleaned up. *)
  let rec supervised () =
    match loop () with
    | () -> ()
    | exception _ when not (stop_now ()) ->
        Atomic.incr t.lane_restarts;
        t.backend.on_lane_restart ();
        supervised ()
    | exception _ -> ()
  in
  supervised ()

(* --- the blocking entry point ------------------------------------- *)

let with_signals t f =
  let install signum = Sys.signal signum (Sys.Signal_handle (fun _ -> request_stop t)) in
  let sigint = install Sys.sigint in
  let sigterm = install Sys.sigterm in
  (* A peer vanishing mid-write must surface as EPIPE, not kill us. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint sigint;
      Sys.set_signal Sys.sigterm sigterm;
      Sys.set_signal Sys.sigpipe sigpipe)
    f

let serve ?(should_stop = fun () -> false) ?(on_ready = fun () -> ()) t =
  t.backend.set_runtime (fun () ->
      [ ("inflight", Util.Json.Int (Atomic.get t.inflight));
        ("max_inflight", Util.Json.Int t.max_inflight);
        ("workers", Util.Json.Int t.workers);
        ("lane_restarts", Util.Json.Int (Atomic.get t.lane_restarts)) ]);
  let listener = bind_listener t in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      match t.address with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    (fun () ->
      with_signals t (fun () ->
          on_ready ();
          (* Accept lanes are I/O-bound — parked in [select]/[read] —
             so each gets a dedicated domain rather than a lane of a
             compute pool: a pool caps its domains at the core count,
             which on a small machine would collapse every lane onto
             one domain and serialize all connections. *)
          let lane () = accept_loop t listener should_stop in
          let spawned = Array.init (t.workers - 1) (fun _ -> Domain.spawn lane) in
          Fun.protect ~finally:(fun () -> Array.iter Domain.join spawned) lane))
