module Json = Util.Json
module Diagnostics = Util.Diagnostics
module Budget = Util.Budget
module Trace = Util.Trace
module Metrics = Util.Metrics

type t = {
  store : Store.t;
  jobs : int;
  request_budget_s : float option;
  clock : Budget.clock;
  tracer : Trace.t;
  lock : Mutex.t;  (* guards the counters and every tracer touch *)
  created_s : float;  (* clock reading at creation, for health uptime *)
  mutable n_requests : int;
  mutable n_errors : int;
  mutable n_shed : int;  (* requests refused by admission control *)
  (* Collapse-stage totals over fresh (non-cached) preparations. *)
  mutable collapse_full : int;
  mutable collapse_classes : int;
  mutable collapse_prime : int;
  mutable collapse_probes : int;
  mutable runtime : unit -> (string * Json.t) list;
      (* extra health fields from the embedding server (in-flight
         count, lane restarts, …) *)
}

let create ?(capacity = 8) ?spill_dir ?(shared_spill = false) ?(jobs = 1) ?request_budget_s
    ?(clock = Budget.default_clock) ?tracer () =
  if jobs < 1 then invalid_arg "Session.create: jobs must be at least 1";
  let tracer = match tracer with Some tr -> tr | None -> Trace.current () in
  { store = Store.create ~capacity ?spill_dir ~write_through:shared_spill (); jobs;
    request_budget_s; clock; tracer;
    lock = Mutex.create (); created_s = clock (); n_requests = 0; n_errors = 0; n_shed = 0;
    collapse_full = 0; collapse_classes = 0; collapse_prime = 0; collapse_probes = 0;
    runtime = (fun () -> []) }

let store t = t.store

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let requests t = locked t (fun () -> t.n_requests)
let shed_count t = locked t (fun () -> t.n_shed)

(* --- parameter decoding ------------------------------------------- *)

let fail_protocol fmt = Diagnostics.fail Diagnostics.Protocol fmt

let param params k = List.assoc_opt k params

let typed_param params k convert ~expected =
  match param params k with
  | None -> None
  | Some v -> (
      match convert v with
      | Some x -> Some x
      | None -> fail_protocol "parameter %S must be %s" k expected)

let int_param params k = typed_param params k Json.to_int ~expected:"an integer"
let float_param params k = typed_param params k Json.to_float ~expected:"a number"
let str_param params k = typed_param params k Json.to_str ~expected:"a string"

(* The engine no longer reads [window], and fault simulation no longer
   takes a [block_width] or [kernel], but existing clients send them: a
   bad value still gets the same E-flag, and the atpg reply echoes
   [window]. *)
let check_window w cfg =
  if w < 1 then Diagnostics.fail Diagnostics.Invalid_flag "--window must be at least 1 (got %d)" w;
  cfg

let check_block_width w cfg =
  if not (List.mem w [ 1; 2; 4; 8 ]) then
    Diagnostics.fail Diagnostics.Invalid_flag "--block-width must be 1, 2, 4 or 8 (got %d)" w;
  cfg

let check_kernel k cfg =
  if not (List.mem k [ "event"; "stem" ]) then
    Diagnostics.fail Diagnostics.Invalid_flag
      "unknown fault-simulation kernel %S (expected event or stem)" k;
  cfg

(* The request's Run_config: session defaults overlaid with the
   explicit parameters, validated by the [with_*] builders so
   out-of-range values surface as the same [E-flag] diagnostics the
   CLI reports. *)
let config_of_params t params =
  let apply get set cfg = match get with Some v -> set v cfg | None -> cfg in
  Run_config.default
  |> Run_config.with_jobs t.jobs
  |> apply (int_param params "seed") Run_config.with_seed
  |> apply (int_param params "pool") Run_config.with_pool
  |> apply (float_param params "target_coverage") Run_config.with_target_coverage
  |> apply (int_param params "jobs") Run_config.with_jobs
  |> apply (int_param params "block_width") check_block_width
  |> apply (int_param params "window") check_window
  |> apply (str_param params "kernel") check_kernel
  |> apply (str_param params "order") Run_flags.with_order_name
  |> apply (int_param params "backtracks") Run_config.with_backtrack_limit
  |> apply (int_param params "retries") Run_config.with_retries

(* Mirrors the CLI's circuit resolution: an inline netlist, a .bench /
   .blif file path, or a suite name. *)
let resolve_circuit params =
  match (str_param params "netlist", str_param params "circuit") with
  | Some text, _ -> Bench_format.parse_string ~title:"netlist" text
  | None, Some spec ->
      if Sys.file_exists spec then
        if Filename.check_suffix spec ".blif" then Blif_format.parse_file spec
        else Bench_format.parse_file spec
      else Suite.build_by_name spec
  | None, None -> fail_protocol "request needs a \"circuit\" name or an inline \"netlist\""

let budget_of_params t params =
  let seconds =
    match float_param params "budget_s" with Some s -> Some s | None -> t.request_budget_s
  in
  (match seconds with
  | Some s when s < 0.0 ->
      Diagnostics.fail Diagnostics.Invalid_flag "budget_s must be non-negative (got %g)" s
  | _ -> ());
  Budget.of_seconds_opt ~clock:t.clock seconds

let check_budget budget ~phase =
  if Budget.expired budget then
    Diagnostics.fail Diagnostics.Budget_expired "request budget expired %s" phase

(* --- op handlers -------------------------------------------------- *)

let setup_reply_fields key cached (setup : Pipeline.setup) =
  [ ("key", Json.Str key); ("cached", Json.Bool cached);
    ("circuit", Json.Str (Circuit.title setup.Pipeline.circuit));
    ("faults", Json.Int (Fault_list.count setup.Pipeline.faults)) ]

let prepared t params budget =
  check_budget budget ~phase:"before preparation";
  let circuit = resolve_circuit params in
  let cfg = config_of_params t params in
  let setup, cached = Store.find_or_prepare t.store cfg circuit in
  check_budget budget ~phase:"during preparation";
  if not cached then begin
    let st = setup.Pipeline.collapse.Collapse.stages in
    locked t (fun () ->
        t.collapse_full <- t.collapse_full + st.Collapse.full;
        t.collapse_classes <- t.collapse_classes + st.Collapse.equivalence;
        t.collapse_prime <- t.collapse_prime + st.Collapse.prime;
        t.collapse_probes <- t.collapse_probes + st.Collapse.probes)
  end;
  (cfg, Store.key_of circuit cfg, setup, cached)

let collapse_fields (setup : Pipeline.setup) =
  let r = setup.Pipeline.collapse in
  let st = r.Collapse.stages in
  ( "collapse",
    Json.Obj
      [ ("full", Json.Int st.Collapse.full);
        ("equivalence", Json.Int st.Collapse.equivalence);
        ("prime", Json.Int st.Collapse.prime);
        ("checkpoints", Json.Int st.Collapse.checkpoints);
        ("probes", Json.Int st.Collapse.probes);
        ("equivalence_ratio", Json.Float (Collapse.collapse_ratio r));
        ("dominance_ratio", Json.Float (Collapse.dominance_ratio r)) ] )

let handle_load t params budget =
  let _cfg, key, setup, cached = prepared t params budget in
  let sel = setup.Pipeline.selection in
  Json.Obj
    (setup_reply_fields key cached setup
    @ [ ("u_size", Json.Int (Patterns.count sel.Adi_index.u));
        ("pool_detected", Json.Int sel.Adi_index.pool_detected);
        ("u_coverage", Json.Float (Adi_index.coverage_of_u setup.Pipeline.adi));
        collapse_fields setup ])

let handle_adi t params budget =
  let _cfg, key, setup, cached = prepared t params budget in
  let adi = setup.Pipeline.adi in
  let min_max =
    match Adi_index.min_max adi with
    | Some (lo, hi) ->
        [ ("adi_min", Json.Int lo); ("adi_max", Json.Int hi);
          ("ratio", Json.Float (float_of_int hi /. float_of_int lo)) ]
    | None -> [ ("adi_min", Json.Null); ("adi_max", Json.Null); ("ratio", Json.Null) ]
  in
  Json.Obj
    (setup_reply_fields key cached setup
    @ [ ("u_size", Json.Int (Patterns.count setup.Pipeline.selection.Adi_index.u));
        ("u_coverage", Json.Float (Adi_index.coverage_of_u adi)) ]
    @ min_max)

let handle_order t params budget =
  let cfg, key, setup, cached = prepared t params budget in
  let order = Ordering.order cfg.Run_config.order setup.Pipeline.adi in
  check_budget budget ~phase:"during ordering";
  let shown =
    match int_param params "limit" with
    | Some limit when limit >= 0 && limit < Array.length order -> Array.sub order 0 limit
    | _ -> order
  in
  Json.Obj
    (setup_reply_fields key cached setup
    @ [ ("order", Json.Str (Ordering.to_string cfg.Run_config.order));
        ("permutation", Json.Arr (Array.to_list (Array.map (fun i -> Json.Int i) shown))) ])

(* Thread what remains of the request deadline into the engine's run
   budget, so a long generation stops at a fault boundary instead of
   outliving the request. *)
let run_engine cfg setup budget =
  let cfg' =
    if Budget.is_unlimited budget then cfg
    else
      let remaining = Budget.remaining_s budget in
      let run_budget =
        match cfg.Run_config.time_budget_s with
        | Some s -> Float.min s remaining
        | None -> remaining
      in
      (* Set as a field: a spent request must reach the engine and fail
         E-budget there, whatever a builder would make of the value. *)
      { cfg with Run_config.time_budget_s = Some run_budget }
  in
  let e =
    (Pipeline.run_order { setup with Pipeline.config = cfg' } cfg.Run_config.order)
      .Pipeline.engine
  in
  if e.Engine.interrupted then
    Diagnostics.fail Diagnostics.Budget_expired "request budget expired during test generation";
  e

let handle_atpg t params budget =
  let cfg, key, setup, cached = prepared t params budget in
  let e = run_engine cfg setup budget in
  Json.Obj
    (setup_reply_fields key cached setup
    @ [ ("order", Json.Str (Ordering.to_string cfg.Run_config.order));
        ("tests",
         Json.Arr
           (Array.to_list (Array.map (fun s -> Json.Str s) (Patterns.to_strings e.Engine.tests))));
        ("test_count", Json.Int (Patterns.count e.Engine.tests));
        ("coverage", Json.Float (Engine.coverage setup.Pipeline.faults e));
        ("untestable", Json.Int (List.length e.Engine.untestable));
        ("aborted", Json.Int (List.length e.Engine.aborted));
        ("out_of_budget", Json.Int (List.length e.Engine.out_of_budget));
        ("retry_recovered", Json.Int e.Engine.retry_recovered);
        (* Kept so existing clients and reply pins see the same shape. *)
        ("window",
         Json.Int (Option.value (int_param params "window") ~default:(4 * cfg.Run_config.jobs)));
        ("spec_dispatched", Json.Int 0); ("spec_committed", Json.Int 0);
        ("spec_wasted", Json.Int 0) ])

(* --- diagnose ----------------------------------------------------- *)

(* Tests the dictionary is built against: an explicit ["tests"] array
   of '0'/'1' vectors, or the ATPG test set for the request's
   configuration (deterministic given the setup key, so the dictionary
   cache key only needs the marker). *)
let diagnose_tests params budget cfg (setup : Pipeline.setup) =
  match param params "tests" with
  | Some (Json.Arr rows) ->
      let strs =
        List.map
          (fun j ->
            match Json.to_str j with
            | Some s -> s
            | None -> fail_protocol "\"tests\" must be an array of '0'/'1' vector strings")
          rows
      in
      if strs = [] then fail_protocol "\"tests\" must not be empty";
      let pats =
        match Patterns.of_strings (Array.of_list strs) with
        | pats -> pats
        | exception Invalid_argument msg -> fail_protocol "bad \"tests\": %s" msg
      in
      if Patterns.n_inputs pats <> Array.length (Circuit.inputs setup.Pipeline.circuit) then
        fail_protocol "\"tests\" vectors have %d bits but the circuit has %d inputs"
          (Patterns.n_inputs pats)
          (Array.length (Circuit.inputs setup.Pipeline.circuit));
      (pats, Digest.to_hex (Digest.string (String.concat "\n" strs)))
  | Some _ -> fail_protocol "\"tests\" must be an array of '0'/'1' vector strings"
  | None ->
      let e = run_engine cfg setup budget in
      (e.Engine.tests, Printf.sprintf "atpg:%s" (Ordering.to_string cfg.Run_config.order))

let decode_fails ~applied params =
  match param params "fails" with
  | None -> [||]
  | Some (Json.Arr items) ->
      let fails =
        List.map
          (fun j ->
            match Json.to_int j with
            | Some i ->
                if i < 0 || i >= applied then
                  fail_protocol "failing test %d outside the applied range [0,%d)" i applied
                else i
            | None -> fail_protocol "\"fails\" must be an array of test indices")
          items
      in
      Array.of_list fails
  | Some _ -> fail_protocol "\"fails\" must be an array of test indices"

let decode_responses dict params =
  let nout = Diagnosis.Dictionary.output_count dict in
  let nt = Diagnosis.Dictionary.test_count dict in
  match param params "responses" with
  | None -> []
  | Some (Json.Arr items) ->
      List.map
        (fun j ->
          match j with
          | Json.Obj fields ->
              let test =
                match Option.bind (List.assoc_opt "test" fields) Json.to_int with
                | Some i when i >= 0 && i < nt -> i
                | Some i -> fail_protocol "response test %d outside [0,%d)" i nt
                | None -> fail_protocol "every response needs an integer \"test\""
              in
              let outs =
                match Option.bind (List.assoc_opt "outputs" fields) Json.to_str with
                | Some s when String.length s = nout -> s
                | Some s ->
                    fail_protocol "response \"outputs\" has %d bits but the circuit has %d outputs"
                      (String.length s) nout
                | None -> fail_protocol "every response needs an \"outputs\" bit string"
              in
              let vals =
                Array.init nout (fun i ->
                    match outs.[i] with
                    | '0' -> false
                    | '1' -> true
                    | c -> fail_protocol "response \"outputs\" has a non-binary character %C" c)
              in
              (test, vals)
          | _ -> fail_protocol "\"responses\" must be an array of {test, outputs} objects")
        items
  | Some _ -> fail_protocol "\"responses\" must be an array of {test, outputs} objects"

let handle_diagnose t params budget =
  let cfg, key, setup, cached = prepared t params budget in
  let tests, tests_digest = diagnose_tests params budget cfg setup in
  check_budget budget ~phase:"before dictionary build";
  let dkey = Store.dict_key ~setup_key:key ~tests_digest in
  let dict, dict_cached =
    Store.find_or_build_dict t.store dkey (fun () ->
        Diagnosis.Dictionary.build ~jobs:cfg.Run_config.jobs setup.Pipeline.faults tests)
  in
  check_budget budget ~phase:"during dictionary build";
  let nt = Diagnosis.Dictionary.test_count dict in
  let applied =
    match int_param params "applied" with
    | None -> nt
    | Some a when a >= 0 && a <= nt -> a
    | Some a -> fail_protocol "\"applied\" must be within [0,%d] (got %d)" nt a
  in
  let fails = decode_fails ~applied params in
  let responses = decode_responses dict params in
  (* Replay the observed log through an incremental session: pass/fail
     verdicts for the applied prefix, full per-output words where the
     tester reported them. *)
  let session = Diagnosis.Diagnoser.start dict in
  let failing = Array.make nt false in
  Array.iter (fun i -> failing.(i) <- true) fails;
  let with_outputs = Array.make nt false in
  List.iter (fun (test, _) -> with_outputs.(test) <- true) responses;
  for test = 0 to applied - 1 do
    if not with_outputs.(test) then
      Diagnosis.Diagnoser.observe session ~test
        (if failing.(test) then Diagnosis.Diagnoser.Fail else Diagnosis.Diagnoser.Pass)
  done;
  List.iter
    (fun (test, vals) ->
      Diagnosis.Diagnoser.observe session ~test (Diagnosis.Diagnoser.Outputs vals))
    responses;
  let survivors = Diagnosis.Diagnoser.survivors session in
  let limit = Option.value ~default:10 (int_param params "limit") in
  if limit < 0 then fail_protocol "\"limit\" must be non-negative";
  let candidates = Diagnosis.Diagnoser.ranking ~limit session in
  let exact =
    (* Exact signature matches of the full pass/fail log — meaningful
       only when every test was applied. *)
    if applied = nt && responses = [] then
      Diagnosis.Diagnoser.exact dict (Diagnosis.Diagnoser.signature_of_fails dict fails)
    else []
  in
  Json.Obj
    (setup_reply_fields key cached setup
    @ [ ( "dictionary",
          Json.Obj
            [ ("key", Json.Str dkey); ("cached", Json.Bool dict_cached);
              ("tests", Json.Int nt);
              ("outputs", Json.Int (Diagnosis.Dictionary.output_count dict));
              ("classes", Json.Int (Diagnosis.Dictionary.resolution dict)) ] );
        ("applied", Json.Int applied);
        ("observed_fails", Json.Int (Array.length fails));
        ("observed_responses", Json.Int (List.length responses));
        ("survivors", Json.Int (List.length survivors));
        ("exact", Json.Arr (List.map (fun fi -> Json.Int fi) exact));
        ( "candidates",
          Json.Arr
            (List.map
               (fun c ->
                 Json.Obj
                   [ ("fault", Json.Int c.Diagnosis.Diagnoser.fault);
                     ("name", Json.Str c.Diagnosis.Diagnoser.name);
                     ("distance", Json.Int c.Diagnosis.Diagnoser.distance) ])
               candidates) ) ])

let handle_stats t =
  let s = Store.stats t.store in
  let requests, errors, cf, cc, cp, cb =
    locked t (fun () ->
        ( t.n_requests, t.n_errors, t.collapse_full, t.collapse_classes, t.collapse_prime, t.collapse_probes ))
  in
  Json.Obj
    [ ("version", Json.Str Util.Version.version); ("requests", Json.Int requests);
      ("errors", Json.Int errors); ("entries", Json.Int s.Store.entries);
      ("capacity", Json.Int s.Store.capacity); ("hits", Json.Int s.Store.hits);
      ("spill_hits", Json.Int s.Store.spill_hits); ("misses", Json.Int s.Store.misses);
      ("insertions", Json.Int s.Store.insertions); ("evictions", Json.Int s.Store.evictions);
      ("spill_writes", Json.Int s.Store.spill_writes);
      ("dict_entries", Json.Int s.Store.dict_entries);
      ("dict_hits", Json.Int s.Store.dict_hits);
      ("dict_spill_hits", Json.Int s.Store.dict_spill_hits);
      ("dict_misses", Json.Int s.Store.dict_misses);
      ("jobs", Json.Int t.jobs);
      (* Always 0 since the engine went serial; kept for stats clients. *)
      ("spec_committed", Json.Int 0); ("spec_wasted", Json.Int 0);
      (* Fault-universe reduction over fresh preparations: full
         universe, equivalence classes, dominance survivors, and the
         expansion-map (probe) size the simulator actually visits. *)
      ("collapse_full", Json.Int cf); ("collapse_classes", Json.Int cc);
      ("collapse_prime", Json.Int cp); ("collapse_probes", Json.Int cb) ]

let handle_health t =
  let s = Store.stats t.store in
  let requests, errors, shed =
    locked t (fun () -> (t.n_requests, t.n_errors, t.n_shed))
  in
  Json.Obj
    ([ ("version", Json.Str Util.Version.version);
       ("uptime_s", Json.Float (t.clock () -. t.created_s));
       ("requests", Json.Int requests); ("errors", Json.Int errors);
       ("shed", Json.Int shed); ("entries", Json.Int s.Store.entries);
       ("capacity", Json.Int s.Store.capacity); ("jobs", Json.Int t.jobs) ]
    @ t.runtime ())

let handle_evict t params =
  match str_param params "key" with
  | Some key -> Json.Obj [ ("evicted", Json.Bool (Store.evict t.store key)) ]
  | None -> Json.Obj [ ("cleared", Json.Int (Store.clear t.store)) ]

(* --- dispatch ----------------------------------------------------- *)

let dispatch_single t op params =
  (* Chaos: a delay here models a slow handler; an error, a handler
     blowing up — both must surface as ordinary typed replies. *)
  Util.Failpoint.check "session.handle";
  let budget () = budget_of_params t params in
  match op with
  | Protocol.Load -> handle_load t params (budget ())
  | Protocol.Adi -> handle_adi t params (budget ())
  | Protocol.Order -> handle_order t params (budget ())
  | Protocol.Atpg -> handle_atpg t params (budget ())
  | Protocol.Diagnose -> handle_diagnose t params (budget ())
  | Protocol.Stats -> handle_stats t
  | Protocol.Health -> handle_health t
  | Protocol.Evict -> handle_evict t params
  | Protocol.Shutdown -> Json.Obj [ ("stopping", Json.Bool true) ]

(* Every library failure becomes a typed wire error — the
   never-raises contract, applied uniformly to whole requests and to
   individual batch items. *)
let capture f =
  match f () with
  | result -> Ok result
  | exception Diagnostics.Failed d -> Error (Protocol.error_of_diagnostic d)
  | exception (Invalid_argument msg | Failure msg) ->
      Error { Protocol.code = Diagnostics.code_string Diagnostics.Invalid_flag; message = msg }
  | exception Sys_error msg ->
      Error { Protocol.code = Diagnostics.code_string Diagnostics.Io_error; message = msg }

let cached_flag_counters tr result =
  match Option.bind (Json.member "cached" result) Json.to_bool with
  | Some true -> Metrics.incr (Trace.counter tr "service.cache.hits")
  | Some false -> Metrics.incr (Trace.counter tr "service.cache.misses")
  | None -> ()

let handle t (req : Protocol.request) =
  let start_s = locked t (fun () -> Trace.now_s t.tracer) in
  let payload =
    match req.Protocol.call with
    | Protocol.Single (op, params) ->
        Result.map (fun j -> Protocol.Result j) (capture (fun () -> dispatch_single t op params))
    | Protocol.Batch (op, items) ->
        (* Each item runs exactly the single-op path, in request
           order, with its own budget and its own error capture — the
           byte-identity and isolation guarantees of single ops, one
           round-trip instead of n. *)
        Ok
          (Protocol.Batch_replies
             (List.map (fun params -> capture (fun () -> dispatch_single t op params)) items))
  in
  let op_string = Protocol.call_name req.Protocol.call in
  (* Publish counters and the request span under the lock — tracers
     and registries are not domain-safe on their own. *)
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      (match payload with Error _ -> t.n_errors <- t.n_errors + 1 | Ok _ -> ());
      let tr = t.tracer in
      if Trace.enabled tr then begin
        Metrics.incr (Trace.counter tr "service.requests");
        Metrics.incr (Trace.counter tr (Printf.sprintf "service.requests.%s" op_string));
        (match payload with
        | Error _ -> Metrics.incr (Trace.counter tr "service.errors")
        | Ok (Protocol.Result result) -> cached_flag_counters tr result
        | Ok (Protocol.Batch_replies items) ->
            List.iter (function Ok r -> cached_flag_counters tr r | Error _ -> ()) items);
        let dur_s = Trace.now_s tr -. start_s in
        Trace.emit_span tr "service.request" ~start_s ~dur_s
          ~attrs:
            [ ("op", Trace.Str op_string); ("id", Trace.Int req.Protocol.id);
              ("ok", Trace.Bool (Result.is_ok payload)) ];
        Metrics.observe
          (Trace.histogram tr (Printf.sprintf "service.request_s.%s" op_string))
          dur_s
      end);
  { Protocol.id = req.Protocol.id; payload }

let count_failed_request t =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      t.n_errors <- t.n_errors + 1;
      if Trace.enabled t.tracer then begin
        Metrics.incr (Trace.counter t.tracer "service.requests");
        Metrics.incr (Trace.counter t.tracer "service.errors")
      end)

(* Admission control refused this request: count the shed; the
   handler never runs. *)
let shed t payload =
  locked t (fun () ->
      t.n_shed <- t.n_shed + 1;
      if Trace.enabled t.tracer then Metrics.incr (Trace.counter t.tracer "service.shed"));
  Protocol.shed_reply ~message:"server overloaded: too many requests in flight" payload

let backend t =
  let observe name n =
    locked t (fun () -> Metrics.observe (Trace.histogram t.tracer name) (float_of_int n))
  in
  { Server.handle = Protocol.answer_frame ~rejected:(fun () -> count_failed_request t) (handle t);
    shed = shed t;
    on_queue_depth = observe "service.queue_depth";
    on_inflight = observe "service.inflight";
    on_lane_restart =
      (fun () ->
        locked t (fun () -> Metrics.incr (Trace.counter t.tracer "service.lane_restarts")));
    set_runtime = (fun f -> t.runtime <- f) }
