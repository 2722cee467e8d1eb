(** The fleet layer: consistent-hash request routing across
    [adi_server] workers.

    A router terminates the same wire {!Protocol} a worker does (plug
    {!backend} into a {!Server}), but instead of computing, it
    forwards: every request that names a circuit is hashed by its
    {e circuit digest} onto a consistent-hash ring of workers, so all
    requests for one circuit land on the same worker — artifact-cache
    affinity for free.  Batch requests are split by target worker,
    forwarded as per-worker sub-batches, and reassembled in request
    order, byte-identical to what a single worker would have answered.

    {2 Liveness and failover}

    Workers start presumed alive.  {!probe} health-checks every worker
    with the existing [health] op and flips liveness both ways — a
    dead worker is skipped by the ring walk (only {e its} keys rehash,
    everyone else's stay put: minimal disruption), a revived worker
    reclaims exactly its old keys.  A forward that exhausts its
    {!Util.Retry} policy with a transport-class failure marks the
    worker dead and fails over to the next live point on the ring;
    typed application errors ([E-flag], [E-budget], per-item batch
    errors) are forwarded verbatim — they are answers, not outages.
    When every worker looks dead the router probes once inline before
    giving up with a typed [E-io].

    {2 Fleet ops}

    [stats] and [evict] fan out to every live worker and aggregate;
    [health] answers from the router's own counters; [shutdown] drains
    the router itself (the [adi_router] binary then optionally drains
    the workers — see {!drain_fleet}). *)

type t

type worker = {
  address : Server.address;
  alive : bool;
  forwarded : int;  (** requests forwarded to this worker so far *)
}

val create :
  ?vnodes:int ->
  ?policy:Util.Retry.policy ->
  ?probe_timeout_s:float ->
  ?clock:Util.Budget.clock ->
  ?tracer:Util.Trace.t ->
  Server.address list ->
  t
(** [vnodes] (default 64) virtual points per worker on the ring —
    more points, smoother key spread.  [policy] (default
    {!Client.default_policy}) governs each forward's transport
    retries; [probe_timeout_s] (default 2.0) bounds one worker
    health-check.
    @raise Invalid_argument on an empty worker list or [vnodes] < 1. *)

val workers : t -> worker list
(** Snapshot, in configuration order. *)

val requests : t -> int
(** Frames handled so far (including failed ones). *)

val affinity : t -> int * int
(** [(hits, moves)]: how many routed keys went to the same worker as
    their previous request vs. were rehashed (worker death/revival). *)

val failovers : t -> int
(** Forwards that found their worker dead and moved on. *)

val routing_key : Protocol.params -> string option
(** The affinity key: a digest of the inline ["netlist"] text or the
    ["circuit"] name.  [None] when the request names no circuit. *)

val worker_for : t -> string -> int option
(** The ring lookup: the worker index a routing key maps to, walking
    past dead workers.  [None] when no worker is alive.  Pure — no
    counters move; the cache-affinity property tests call this
    directly. *)

val set_alive : t -> int -> bool -> unit
(** Mark one worker's liveness (what {!probe} and failover do; exposed
    for tests and tooling). *)

val probe : t -> unit
(** Health-check every worker once, updating liveness both ways.
    Never raises. *)

val drain_fleet : t -> unit
(** Best-effort [shutdown] to every worker (alive or not) — the
    whole-fleet graceful drain.  Never raises. *)

val backend : t -> Server.backend
(** Package the router as a {!Server.backend}.  Every exchange with a
    worker — a forward, a batch group, a [stats]/[evict] fan-out leg, a
    probe, the drain — opens its own worker connection and closes it on
    the reply, so a router lane never holds one worker's lane while it
    waits on another. *)
