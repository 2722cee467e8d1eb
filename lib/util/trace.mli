(** Nestable wall-clock spans, structured events, and a JSONL sink.

    A tracer owns a {!Metrics.t} registry, an injectable clock (reusing
    {!Budget.clock}, so tests drive time deterministically), and an
    optional event sink.  The process-wide {e current} tracer defaults
    to {!null}, whose every operation is a no-op behind a single branch
    — instrumentation left in place costs nothing measurable when
    observability is off.

    Tracers are {b leader-domain-only}: emit spans and update handles
    from the domain that owns the tracer.  Worker lanes accumulate into
    private storage (workspace counters, per-lane busy arrays) that the
    leader merges after a fork-join.

    {2 Span naming convention}

    Dot-separated [component.phase] names, lowercase:
    [pipeline.prepare], [prepare.select_u], [engine.pass],
    [faultsim.detection_sets].  Nested spans carry their [depth] so a
    reader can reconstruct the tree from a flat JSONL stream (children
    are emitted before their parents, at a greater depth). *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attrs = (string * value) list

type event =
  | Span of { name : string; at_s : float; dur_s : float; depth : int; attrs : attrs }
      (** A closed span: [at_s] is its start relative to the tracer's
          creation, [dur_s] its wall-clock duration. *)
  | Instant of { name : string; at_s : float; attrs : attrs }
      (** A point event (run start/end, budget expiry, …). *)
  | Counter of { name : string; value : int; attrs : attrs }
      (** Cumulative counter value at flush time. *)
  | Hist of { name : string; n : int; sum : float; min_v : float; max_v : float; attrs : attrs }
      (** Histogram summary at flush time. *)

val schema : string
(** ["adi_trace/v1"] — carried by every JSONL line. *)

val to_json : event -> string
(** One self-describing single-line JSON object (no trailing
    newline). *)

val of_json : string -> (event, string) result
(** Parse a line produced by {!to_json}.  Round-trips exactly
    (including float precision). *)

(** {1 Tracers} *)

type t

val null : t
(** The disabled tracer: spans run their body directly, handles are
    dummies, nothing is emitted. *)

val make : ?clock:Budget.clock -> ?sink:(event -> unit) -> unit -> t
(** A live tracer.  [clock] defaults to {!Budget.default_clock};
    [sink] receives every span/instant as it closes and the metrics
    summary on {!flush_metrics} (no sink: metrics-only tracing). *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val span : t -> ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()], emits a [Span] event when it returns
    or raises, and folds the duration into the ["span:<name>"]
    histogram that {!Metrics.report} renders as the phase table. *)

val instant : t -> ?attrs:attrs -> string -> unit

val emit_span : t -> ?attrs:attrs -> string -> start_s:float -> dur_s:float -> unit
(** Record an externally timed span (depth 0): folds [dur_s] into the
    ["span:<name>"] histogram and emits a [Span] event whose start is
    the {!now_s} reading [start_s].  For callers that cannot run the
    timed body inside {!span} — e.g. a server worker domain that times
    a request privately and publishes it under a lock. *)

val now_s : t -> float
(** A raw clock read (0 when disabled) — for accumulating class-bucketed
    durations without a closure per sample. *)

val time : t -> Metrics.histogram -> (unit -> 'a) -> 'a
(** Time the callback into a histogram without emitting a span event —
    for per-block or per-test measurements that would flood the
    sink. *)

val counter : t -> string -> Metrics.counter
(** Shorthand for [Metrics.counter (metrics t)]. *)

val histogram : t -> string -> Metrics.histogram

val flush_metrics : t -> unit
(** Emit one [Counter]/[Hist] event per registry entry to the sink
    (cumulative values; a reader keeps the last event per name). *)

(** {1 The current tracer} *)

val current : unit -> t
(** The installed tracer, {!null} by default. *)

val set_current : t -> unit

val with_current : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback, restoring the
    previous tracer afterwards. *)

val file_sink : out_channel -> event -> unit
(** Write each event as one JSONL line and flush, so concurrent
    processes appending to the same file keep whole lines. *)

val install_from_env : unit -> unit
(** Test-suite hook: [ADI_METRICS=1] installs a metrics-collecting
    tracer whose report is printed to stderr at exit;
    [ADI_TRACE=prefix] additionally streams events to
    [<prefix>.<pid>.jsonl] (append mode — one file per process, so
    parallel test binaries never interleave).  No-op when neither
    variable is set. *)
