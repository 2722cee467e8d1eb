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

val backend : t -> Server.backend
(** Package this session as a {!Server.backend}: frames go through
    {!Protocol.answer_frame} to {!handle} (a frame that does not decode
    counts as a failed request), a shed frame gets an [E-overload]
    reply and bumps the shed counter and the [service.shed] metric,
    and the server's observability hooks feed the session's metrics. *)
