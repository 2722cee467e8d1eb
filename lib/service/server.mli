(** Concurrent socket front end for any frame-handling backend.

    Listens on a Unix-domain or TCP socket and serves the
    length-prefixed {!Protocol} framing to many clients at once: each
    of [workers] accept-serve lanes runs its own dedicated domain over
    the shared listening socket, so up to [workers] connections are
    handled simultaneously while the kernel's listen [backlog] bounds
    the accept queue — clients beyond both simply queue, they are never
    dropped by the server itself.

    The server knows nothing about request semantics: it is
    parameterised over a {!backend} — one frame handler plus
    observability hooks, with no per-connection state.
    {!Session.backend} plugs a worker's request handling in;
    {!Router.backend} plugs the fleet router in; tests plug fakes in.

    {2 Admission control}

    Independently of connection concurrency, at most [max_inflight]
    requests may be inside a handler at once.  A request that cannot
    acquire a slot within [queue_wait_s] is {e shed}: the lane replies
    immediately with the backend's typed [E-overload] error (the
    resilient client backs off and retries) instead of queueing
    unboundedly.  Accept lanes that die from an injected or unexpected
    exception are counted and restarted, so a single failure never
    silently halves the server's capacity — and {!serve} still drains
    cleanly and removes its socket file.

    {2 Shutdown and drain}

    The server stops when a handler returns the [`Shutdown] directive,
    when [should_stop] returns true, or — while {!serve} is running —
    on SIGINT/SIGTERM.  Stopping is always a {e graceful drain}: every
    lane finishes the request it is processing and flushes the reply
    before closing; only then does {!serve} return.  Idle connections
    are closed at the next poll tick, so a silent client can never
    wedge the drain. *)

type address =
  | Unix_socket of string  (** path; a stale socket file is replaced *)
  | Tcp of string * int  (** bind address and port *)

val address_to_string : address -> string

type directive = [ `Continue | `Shutdown ]

type backend = {
  handle : string -> string * directive;
      (** map one frame payload to one reply payload, on any lane and
          any connection; must never raise for request-level failures
          (encode them as error replies) — see
          {!Protocol.answer_frame} *)
  shed : string -> string;
      (** admission control refused this frame — build the E-overload
          reply without running the handler *)
  on_queue_depth : int -> unit;  (** busy-connection sample at accept *)
  on_inflight : int -> unit;  (** in-flight sample at admission *)
  on_lane_restart : unit -> unit;  (** an accept lane died and was revived *)
  set_runtime : (unit -> (string * Util.Json.t) list) -> unit;
      (** receive the server's live-stats thunk (in-flight count, lane
          restarts, …) for embedding into health replies *)
}

type t

val create :
  ?workers:int ->
  ?backlog:int ->
  ?poll_interval_s:float ->
  ?max_inflight:int ->
  ?queue_wait_s:float ->
  backend ->
  address ->
  t
(** [workers] (default 4) accept-serve lanes; [backlog] (default 16)
    bounds the kernel accept queue; [poll_interval_s] (default 0.05)
    is the stop-flag poll cadence for idle lanes and idle connections.
    [max_inflight] (default [workers]) bounds concurrent in-handler
    requests; [queue_wait_s] (default 0.1) is how long a request may
    wait for a slot before being shed with [E-overload].
    @raise Invalid_argument on out-of-range values. *)

val request_stop : t -> unit
(** Ask a running {!serve} to drain and return (thread-safe; also what
    the signal handlers call). *)

val lane_restarts : t -> int
(** Accept lanes revived after dying from an exception. *)

val serve : ?should_stop:(unit -> bool) -> ?on_ready:(unit -> unit) -> t -> unit
(** Bind, listen, call [on_ready] (the socket now accepts
    connections), and block until drained.  SIGINT/SIGTERM handlers
    are installed for the duration and restored on return.
    @raise Util.Diagnostics.Failed with code [Io_error] when the
    socket cannot be bound. *)
