(** The service wire protocol: typed requests and replies over
    length-prefixed JSON frames.

    {2 Ops and batches}

    A single op ([load], [adi], [order], …) does one piece of work per
    round trip.  The batch ops ([batch_adi] / [batch_order] /
    [batch_atpg] / [batch_diagnose]) carry many circuits or
    configurations in one round trip, replies in request order.
    Request [id]s make every reply attributable: a reply echoes the
    [id] of the request it answers.  Unknown ops come back as a typed [E-protocol]
    error listing every op the server speaks.

    {2 Framing}

    Each message is one frame: a 4-byte big-endian payload length, a
    16-byte MD5 digest of the payload, then that many bytes of UTF-8
    JSON (one value per frame, no trailing newline).  Length-prefixing
    keeps the stream self-delimiting regardless of payload content and
    lets the reader allocate exactly once; frames above
    {!max_frame_bytes} are rejected before allocation so a rogue peer
    cannot balloon the process.  The digest catches in-flight
    corruption: a flipped byte surfaces as a typed [E-protocol]
    failure a resilient client retries, never as a silently wrong
    reply.

    Failpoint sites [protocol.write] (fault/corrupt an outgoing
    frame), [protocol.torn] (short write then drop) and
    [protocol.read] let the chaos suite exercise exactly those
    failures (see {!Util.Failpoint}).

    {2 Requests}

    [{"id": <int>, "op": <string>, ...params}] — every field other
    than [id]/[op] is an op-specific parameter.  Batch requests carry
    their items in a ["requests"] array of parameter objects:
    [{"id":7,"op":"batch_order","requests":[{"circuit":"c17"},...]}].

    {2 Responses}

    [{"id": <int>, "ok": true, "result": {...}}] on success;
    [{"id": <int>, "ok": true, "batch": [...]}] for a batch, each
    element [{"ok":true,"result":...}] or [{"ok":false,"error":...}]
    in request order; or [{"id": <int>, "ok": false, "error": {"code":
    "E-...", "message": ...}}] with a stable {!Util.Diagnostics} code
    slug on failure.  The [id] echoes the request (0 when the request
    was too malformed to carry one). *)

type params = (string * Util.Json.t) list
(** Everything in a request object besides [id]/[op]. *)

type op = Load | Adi | Order | Atpg | Diagnose | Stats | Health | Evict | Shutdown

val op_name : op -> string
val op_of_name : string -> op option

val batchable : op -> bool
(** Ops with a [batch_*] form: [Adi], [Order], [Atpg], [Diagnose]. *)

type call =
  | Single of op * params  (** one op *)
  | Batch of op * params list
      (** one round-trip, many parameter sets; the op must be
          {!batchable} *)

type request = { id : int; call : call }

val call_name : call -> string
(** The wire op string: ["adi"], ["batch_adi"], … *)

val single : ?id:int -> string -> params -> request
(** Build a {!Single} request from an op name (default [id] 1).
    @raise Invalid_argument on an unknown op name. *)

val ops : string list
(** Every known op string, single ops first — the vocabulary quoted
    by unknown-op error messages. *)

type error = { code : string; message : string }

type reply =
  | Result of Util.Json.t  (** one single-op result object *)
  | Batch_replies of (Util.Json.t, error) result list
      (** per-item outcomes, in request order; an item's failure never
          poisons its siblings *)

type response = { id : int; payload : (reply, error) result }

type decode_error =
  | Malformed of string  (** not a request at all *)
  | Unknown_op of { id : int; op : string }
      (** syntactically a request, but no such op — the reply must
          echo [id] *)

val request_to_json : request -> Util.Json.t
val request_of_json : Util.Json.t -> (request, decode_error) result

val response_to_json : response -> Util.Json.t
val response_of_json : Util.Json.t -> (response, string) result

val error_of_diagnostic : Util.Diagnostics.t -> error
(** Keep the stable code slug and the message; drop the location. *)

val diagnostic_of_error : error -> Util.Diagnostics.t
(** Recover a typed diagnostic from a wire error; an unknown code slug
    maps to [Protocol] with the slug preserved in the message. *)

(** {1 Answering frames}

    The one frame path every server backend shares: decode, reply,
    encode. *)

val answer_frame :
  rejected:(unit -> unit) ->
  (request -> response) ->
  string ->
  string * [ `Continue | `Shutdown ]
(** [answer_frame ~rejected handle payload] decodes one frame payload,
    runs [handle] on the request and encodes its reply.  A payload that
    is not JSON or not a request gets an [E-protocol] reply with id 0;
    an unknown op gets one that echoes the request id and lists every
    known op; both call [rejected] (to count a failed request) instead
    of [handle].  The directive is [`Shutdown] exactly when a
    [shutdown] request was answered with success. *)

val shed_reply : message:string -> string -> string
(** The reply to a frame that admission control refused: an
    [E-overload] error carrying [message], echoing the request id (0
    when the payload does not decode far enough to carry one). *)

(** {1 Framing} *)

val max_frame_bytes : int
(** 64 MiB. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one complete frame (handles short writes).
    @raise Util.Diagnostics.Failed with code [Protocol] on an oversized
    payload, [Io_error] if the peer closed the connection. *)

val read_frame : Unix.file_descr -> string option
(** Read one complete frame and verify its digest.  [None] on a clean
    EOF at a frame boundary.  @raise Util.Diagnostics.Failed with code
    [Protocol] on a truncated, oversized or corrupt frame. *)
