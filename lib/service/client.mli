(** Resilient client library for the ADI service.

    A client owns one (lazily established) connection to a server and
    a {!Util.Retry} policy.  Every entry point rides through the
    transient failures a fleet guarantees — refused connections, torn
    or corrupt frames (the framing digest turns those into typed
    [E-protocol] failures), reply timeouts, and [E-overload] shedding
    replies — by disconnecting, backing off with full jitter,
    reconnecting and resending.  Anything non-transient propagates
    immediately.

    Retrying is safe because requests are idempotent by construction:
    the server's artifact cache is content-addressed on the request
    parameters, so a resent [atpg]/[order]/[load] hits the warm cache
    and returns the byte-identical reply the lost one carried.

    {2 The call surface}

    {!call} is the generic entry point: one typed {!Protocol.call} in,
    one typed {!Protocol.reply} or {!Util.Diagnostics.t} out, never an
    exception.  {!single} takes any {!Protocol.op} (callers that start
    from an op name go through {!Protocol.op_of_name}); the per-op
    functions ({!load}, {!order}, {!batch}, …) are thin wrappers over
    it.  Every call is one frame on the wire: there is no handshake.

    Each transport retry bumps the [client.retries] counter on the
    client's tracer (and the {!retries} accessor), so soaks and
    benches can report how much chaos was actually absorbed. *)

type t

val default_policy : Util.Retry.policy
(** {!Util.Retry.default}: 3 attempts, 50 ms base backoff doubling to
    a 2 s cap, full jitter, no deadlines. *)

val create :
  ?policy:Util.Retry.policy ->
  ?clock:Util.Budget.clock ->
  ?sleep:(float -> unit) ->
  ?seed:int ->
  ?tracer:Util.Trace.t ->
  Server.address ->
  t
(** No connection is made yet — the first call connects.
    [seed] (default 1) drives the backoff jitter; [tracer] defaults to
    {!Util.Trace.null} (clients often live on non-leader domains). *)

val close : t -> unit
(** Drop the connection, if any.  The client may be reused — the next
    call reconnects. *)

val retries : t -> int
(** Total transport retries performed over the client's lifetime. *)

(** {2 Generic calls} *)

val call :
  t -> ?timeout_s:float -> Protocol.call -> (Protocol.reply, Util.Diagnostics.t) result
(** One call, one reply; never raises.  Application errors and
    exhausted transport retries both surface as typed diagnostics
    (via {!Protocol.diagnostic_of_error} for wire errors).
    [timeout_s] overrides the policy's overall deadline. *)

val call_exn :
  t -> ?timeout_s:float -> Protocol.call -> (Protocol.reply, Protocol.error) result
(** Like {!call}, but keeps the two failure planes separate:
    application errors return as wire errors; transport exhaustion
    raises.  The router uses this to tell "the worker answered with an
    error" (forward it) from "the worker is gone" (fail over).
    @raise Util.Diagnostics.Failed when retries are exhausted: the
    last transport failure ([Io_error]/[Protocol]), [Budget_expired]
    on deadline expiry, or [Overload] if the server shed every
    attempt. *)

(** {2 Per-op wrappers} *)

val single :
  t -> ?timeout_s:float -> Protocol.op -> Protocol.params ->
  (Util.Json.t, Util.Diagnostics.t) result
(** One single-op round-trip: the result object, or the typed
    diagnostic of a wire error reply or of exhausted transport
    retries (see {!call}). *)

val load : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val adi : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val order : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val atpg : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val diagnose : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val evict : t -> ?timeout_s:float -> Protocol.params -> (Util.Json.t, Util.Diagnostics.t) result
val stats : t -> ?timeout_s:float -> unit -> (Util.Json.t, Util.Diagnostics.t) result
val health : t -> ?timeout_s:float -> unit -> (Util.Json.t, Util.Diagnostics.t) result
val shutdown : t -> ?timeout_s:float -> unit -> (Util.Json.t, Util.Diagnostics.t) result

val batch :
  t ->
  ?timeout_s:float ->
  Protocol.op ->
  Protocol.params list ->
  ((Util.Json.t, Protocol.error) result list, Util.Diagnostics.t) result
(** One [batch_*] round-trip; per-item outcomes in request order, each
    byte-identical to the equivalent single op's result.
    @raise Invalid_argument when the op has no batch form. *)
