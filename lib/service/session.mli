(** Request handling: one resident session composes the {!Store} with
    the existing {!Pipeline} entry points.

    A session owns the artifact cache, the request counters and a
    tracer; {!handle} maps one {!Protocol.request} to one
    {!Protocol.response} and {b never raises} — every library error
    (typed diagnostics, invalid flags, I/O failures) becomes a typed
    error reply with a stable [E-...] code, because a resident service
    must survive any single bad request.

    {2 Batches}

    A batch request ([batch_adi] / [batch_order] / [batch_atpg]) runs
    each parameter set through {e exactly} the single-op path, in
    request order, each item under its own budget and its own error
    capture — so every item's result object is byte-identical to the
    reply of the equivalent single op, and one bad item never poisons its
    siblings.  The batch counts as one request; per-item cache
    outcomes still feed the cache hit/miss counters.

    {2 Budgets}

    Each request (and each batch item) runs under a {!Util.Budget}
    deadline: the [budget_s] parameter, or the session-wide default.
    The deadline is checked at phase boundaries, and for [atpg] the
    remaining time is threaded into the engine's run budget so even a
    long generation stops at a fault boundary; expiry is reported as
    an [E-budget] error reply, never a hang or a dead worker.

    {2 Determinism}

    Replies contain no wall-clock fields, and every compute path goes
    through the same [Pipeline]/[Ordering]/[Engine] calls an offline
    run uses — a reply served from a warm cache is byte-identical to
    the reply a cold session (or a cold [Pipeline.run_order])
    would produce for the same request.  This is the service's core
    correctness invariant and is pinned by the unit and cram suites.

    All entry points are domain-safe: compute runs lock-free and
    shared state (store, counters, tracer) is published under one
    mutex. *)

type t

val create :
  ?capacity:int ->
  ?spill_dir:string ->
  ?shared_spill:bool ->
  ?jobs:int ->
  ?request_budget_s:float ->
  ?clock:Util.Budget.clock ->
  ?tracer:Util.Trace.t ->
  unit ->
  t
(** [capacity]/[spill_dir] configure the {!Store} (default capacity 8,
    no spill).  [shared_spill] (default false) turns the spill
    directory into a fleet-level second-level store: fresh setups are
    written through immediately so sibling workers sharing the
    directory find them (see {!Store}).  [jobs] (default 1) is the
    detection-set and dictionary lane count for requests that do not
    set their own.  [request_budget_s] is the default per-request deadline
    (default: none).  [tracer] defaults to the current tracer at
    creation time. *)

val store : t -> Store.t
val requests : t -> int
(** Requests handled so far (including failed ones). *)

val shed_count : t -> int
(** Requests refused by admission control so far. *)

(** {2 Request handling} *)

val handle : t -> Protocol.request -> Protocol.response
(** Never raises; see the module doc for the op and error schemas. *)

val handle_frame : t -> string -> string * [ `Continue | `Shutdown ]
(** Decode one frame payload, {!handle} it, encode the reply.
    Malformed JSON yields an [E-protocol] error reply with id 0; an
    unknown op echoes the request id and lists every known op.  The
    directive tells the server loop whether this request
    asked the service to stop. *)

val shed_frame : t -> string -> string
(** The admission-control refusal path: build an [E-overload] error
    reply echoing the request's id (0 when unparseable), bump the shed
    counter and the [service.shed] metric.  The handler never runs. *)

val backend : t -> Server.backend
(** Package this session as a {!Server.backend}: frames route through
    {!handle_frame}, sheds through {!shed_frame}, and the server's
    observability hooks feed the session's metrics. *)

(** {2 Server hooks} *)

val set_runtime : t -> (unit -> (string * Util.Json.t) list) -> unit
(** Install extra [health]-reply fields (in-flight count, lane
    restarts, …) supplied by the embedding server.  Call before
    serving begins. *)

val observe_queue_depth : t -> int -> unit
(** Record an accept-time queue-depth sample into the
    [service.queue_depth] histogram (called by the server). *)

val observe_inflight : t -> int -> unit
(** Record an admission-time in-flight sample into the
    [service.inflight] histogram (called by the server). *)

val note_lane_restart : t -> unit
(** Bump the [service.lane_restarts] counter — an accept lane died
    and was restarted (called by the server). *)
