(* Nestable wall-clock spans over an injectable clock, plus a
   structured JSONL event sink.  One tracer is installed as the
   process-wide current tracer (default: disabled); instrumented code
   reads it at phase entry, never per inner operation.  Tracers are
   leader-domain-only: worker lanes accumulate into private storage
   that the leader merges after a join. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attrs = (string * value) list

type event =
  | Span of { name : string; at_s : float; dur_s : float; depth : int; attrs : attrs }
  | Instant of { name : string; at_s : float; attrs : attrs }
  | Counter of { name : string; value : int; attrs : attrs }
  | Hist of { name : string; n : int; sum : float; min_v : float; max_v : float; attrs : attrs }

let schema = "adi_trace/v1"

(* --- JSONL encoding (on the shared {!Json} dialect) --------------- *)

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool v -> Json.Bool v

let value_of_json = function
  | Json.Str s -> Str s
  | Json.Bool v -> Bool v
  | Json.Int i -> Int i
  | Json.Float f when Float.is_integer f && Float.abs f < 1e15 -> Int (int_of_float f)
  | Json.Float f -> Float f
  | _ -> Str ""

let to_json ev =
  let attrs_field attrs = ("attrs", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)) in
  let fields =
    match ev with
    | Span s ->
        [ ("ev", Json.Str "span"); ("name", Json.Str s.name); ("at_s", Json.Float s.at_s);
          ("dur_s", Json.Float s.dur_s); ("depth", Json.Int s.depth); attrs_field s.attrs ]
    | Instant i ->
        [ ("ev", Json.Str "instant"); ("name", Json.Str i.name); ("at_s", Json.Float i.at_s);
          attrs_field i.attrs ]
    | Counter c ->
        [ ("ev", Json.Str "counter"); ("name", Json.Str c.name); ("value", Json.Int c.value);
          attrs_field c.attrs ]
    | Hist h ->
        [ ("ev", Json.Str "hist"); ("name", Json.Str h.name); ("count", Json.Int h.n);
          ("sum", Json.Float h.sum); ("min", Json.Float h.min_v); ("max", Json.Float h.max_v);
          attrs_field h.attrs ]
  in
  Json.to_string (Json.Obj (("schema", Json.Str schema) :: fields))

let of_json line =
  match Json.of_string line with
  | Error _ as e -> e
  | Ok (Json.Obj _ as obj) -> (
      let str k =
        match Option.bind (Json.member k obj) Json.to_str with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "missing string field %S" k)
      in
      let num k =
        match Option.bind (Json.member k obj) Json.to_float with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "missing numeric field %S" k)
      in
      let int k = Result.map int_of_float (num k) in
      let attrs =
        match Json.member "attrs" obj with
        | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
        | _ -> []
      in
      let ( let* ) = Result.bind in
      let* s = str "schema" in
      if s <> schema then Error (Printf.sprintf "unknown schema %S" s)
      else
        let* ev = str "ev" in
        match ev with
        | "span" ->
            let* name = str "name" in
            let* at_s = num "at_s" in
            let* dur_s = num "dur_s" in
            let* depth = int "depth" in
            Ok (Span { name; at_s; dur_s; depth; attrs })
        | "instant" ->
            let* name = str "name" in
            let* at_s = num "at_s" in
            Ok (Instant { name; at_s; attrs })
        | "counter" ->
            let* name = str "name" in
            let* value = int "value" in
            Ok (Counter { name; value; attrs })
        | "hist" ->
            let* name = str "name" in
            let* n = int "count" in
            let* sum = num "sum" in
            let* min_v = num "min" in
            let* max_v = num "max" in
            Ok (Hist { name; n; sum; min_v; max_v; attrs })
        | ev -> Error (Printf.sprintf "unknown event kind %S" ev))
  | Ok _ -> Error "not a JSON object"

(* --- tracers ------------------------------------------------------ *)

type t = {
  enabled : bool;
  clock : Budget.clock;
  t0 : float;
  metrics : Metrics.t;
  sink : (event -> unit) option;
  mutable depth : int;
}

let null =
  { enabled = false; clock = (fun () -> 0.0); t0 = 0.0; metrics = Metrics.null; sink = None;
    depth = 0 }

let make ?(clock = Budget.default_clock) ?sink () =
  { enabled = true; clock; t0 = clock (); metrics = Metrics.create (); sink; depth = 0 }

let enabled t = t.enabled
let metrics t = t.metrics

let emit t ev = match t.sink with None -> () | Some sink -> sink ev

let span t ?(attrs = []) name f =
  if not t.enabled then f ()
  else begin
    let start = t.clock () in
    t.depth <- t.depth + 1;
    Fun.protect
      ~finally:(fun () ->
        t.depth <- t.depth - 1;
        let dur = t.clock () -. start in
        Metrics.observe (Metrics.histogram t.metrics (Metrics.span_prefix ^ name)) dur;
        emit t (Span { name; at_s = start -. t.t0; dur_s = dur; depth = t.depth; attrs }))
      f
  end

let instant t ?(attrs = []) name =
  if t.enabled then emit t (Instant { name; at_s = t.clock () -. t.t0; attrs })

(* An externally timed span: same histogram fold and event shape as
   {!span}, but the caller supplies the start/duration, so the body
   never runs under the tracer's nesting state.  This is the only safe
   way for worker domains to record request spans — they time the work
   privately and publish here under the caller's lock. *)
let emit_span t ?(attrs = []) name ~start_s ~dur_s =
  if t.enabled then begin
    Metrics.observe (Metrics.histogram t.metrics (Metrics.span_prefix ^ name)) dur_s;
    emit t (Span { name; at_s = start_s -. t.t0; dur_s; depth = 0; attrs })
  end

let now_s t = if t.enabled then t.clock () else 0.0

(* Like {!span} but folds into a histogram only — for per-block /
   per-test timings that would flood the sink as individual events. *)
let time t h f =
  if not t.enabled then f ()
  else begin
    let start = t.clock () in
    Fun.protect ~finally:(fun () -> Metrics.observe h (t.clock () -. start)) f
  end

let counter t name = Metrics.counter t.metrics name
let histogram t name = Metrics.histogram t.metrics name

(* One self-describing event per registry entry; called once at end of
   run (and again by later flushes — counts are cumulative, so readers
   take the last event per name). *)
let flush_metrics t =
  if t.enabled && t.sink <> None then begin
    List.iter
      (fun c ->
        emit t
          (Counter { name = Metrics.counter_name c; value = Metrics.count c; attrs = [] }))
      (Metrics.counters t.metrics);
    List.iter
      (fun h ->
        emit t
          (Hist
             {
               name = Metrics.histogram_name h;
               n = Metrics.observations h;
               sum = Metrics.total h;
               min_v = Metrics.minimum h;
               max_v = Metrics.maximum h;
               attrs = [];
             }))
      (Metrics.histograms t.metrics)
  end

(* --- the current tracer ------------------------------------------- *)

let current_tracer = ref null
let current () = !current_tracer
let set_current t = current_tracer := t

let with_current t f =
  let prev = !current_tracer in
  current_tracer := t;
  Fun.protect ~finally:(fun () -> current_tracer := prev) f

let file_sink oc ev =
  output_string oc (to_json ev);
  output_char oc '\n';
  flush oc

let install_from_env () =
  let metrics_on =
    match Sys.getenv_opt "ADI_METRICS" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  let trace_prefix =
    match Sys.getenv_opt "ADI_TRACE" with None | Some "" -> None | Some p -> Some p
  in
  if metrics_on || trace_prefix <> None then begin
    let sink =
      Option.map
        (fun prefix ->
          let path = Printf.sprintf "%s.%d.jsonl" prefix (Unix.getpid ()) in
          let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
          at_exit (fun () -> close_out_noerr oc);
          file_sink oc)
        trace_prefix
    in
    let tr = make ?sink () in
    set_current tr;
    at_exit (fun () ->
        flush_metrics tr;
        if metrics_on then prerr_string (Metrics.report (metrics tr)))
  end
