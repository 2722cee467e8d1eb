(* Benchmark and reproduction driver.

   With no arguments: regenerate every quick table/figure of the paper
   (Tables 1, 4, 5, 6, 7, Figure 1, plus the two ablations) on the
   twelve small suite circuits, then run one Bechamel micro-benchmark
   per experiment kernel.

     dune exec bench/main.exe                    # everything quick
     dune exec bench/main.exe table5             # one artefact
     dune exec bench/main.exe -- --full table5   # + syn5378/syn13207
     dune exec bench/main.exe -- --no-micro      # skip Bechamel part
     dune exec bench/main.exe -- --micro-only    # only Bechamel part
     dune exec bench/main.exe -- --jobs 8        # parallel-kernel domains
     dune exec bench/main.exe -- --metrics       # end-of-run phase tables
     dune exec bench/main.exe -- --trace t.jsonl # JSONL event log

   The run-configuration flags (--seed, --jobs, --metrics, --trace) are
   the same table-driven set the adi_atpg CLI uses (Run_flags); only
   the driver-local selectors below are parsed here.

   Besides the text report, the perf-kernel section appends a
   timestamped entry to a BENCH_adi.json history in the working
   directory, so successive runs can be compared. *)

let experiments_requested = ref []
let full = ref false
let bench_cfg = ref (Run_config.with_jobs 4 Run_config.default)
let run_reports = ref true
let run_micro = ref true
let run_perf = ref true
let run_soak = ref false
let run_fleet = ref false
let run_diagnosis = ref false
let run_scaling = ref false
let scaling_gen = ref "gates=120k,reconv=0.3,seed=7"
let history_keep = ref 50
let seed () = !bench_cfg.Run_config.seed
let jobs () = !bench_cfg.Run_config.jobs

let usage () =
  prerr_endline
    "usage: main.exe [--full] [--seed N] [--jobs N] [--window N] [--metrics] \
     [--trace FILE] [--no-micro | --micro-only] [--no-perf] [--soak] [--fleet] \
     [--diagnosis] [--scaling] [--gen SPEC] [--history-keep N] [EXPERIMENT ...]";
  Printf.eprintf "experiments: %s\n" (String.concat ", " Harness.experiment_names);
  exit 2

let parse_args () =
  let specs =
    Run_flags.pipeline_specs @ Run_flags.engine_specs @ Run_flags.observability_specs
  in
  let cfg, rest =
    Run_flags.parse ~specs ~init:!bench_cfg (List.tl (Array.to_list Sys.argv))
  in
  bench_cfg := cfg;
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        full := true;
        go rest
    | "--no-micro" :: rest ->
        run_micro := false;
        go rest
    | "--micro-only" :: rest ->
        run_reports := false;
        run_perf := false;
        go rest
    | "--no-perf" :: rest ->
        run_perf := false;
        go rest
    | "--soak" :: rest ->
        run_soak := true;
        go rest
    | "--fleet" :: rest ->
        run_fleet := true;
        go rest
    | "--diagnosis" :: rest ->
        run_diagnosis := true;
        go rest
    | "--scaling" :: rest ->
        run_scaling := true;
        go rest
    | "--gen" :: spec :: rest ->
        scaling_gen := spec;
        go rest
    | "--history-keep" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k -> history_keep := k; go rest
        | None -> usage ())
    | ("--help" | "-h") :: _ -> usage ()
    | w :: rest ->
        if List.mem w Harness.experiment_names then begin
          experiments_requested := w :: !experiments_requested;
          go rest
        end
        else usage ()
  in
  go rest;
  if !experiments_requested = [] then
    experiments_requested :=
      [ "table1"; "table4"; "table5"; "table6"; "table7"; "figure1";
        "ablation-static"; "ablation-u"; "ablation-ndetection";
        "ablation-estimator"; "ablation-reorder"; "ablation-independence";
        "ablation-engines"; "ablation-compaction"; "ablation-truncation" ]
  else experiments_requested := List.rev !experiments_requested

(* ---------- reproduction reports --------------------------------- *)

(* (name, wall seconds) of every timed section, for BENCH_adi.json. *)
let experiment_times = ref []

let print_reports () =
  List.iter
    (fun w ->
      let t0 = Unix.gettimeofday () in
      let body =
        Util.Trace.span (Util.Trace.current ())
          ~attrs:[ ("experiment", Util.Trace.Str w) ]
          "bench.experiment"
          (fun () -> Harness.run_experiment ~seed:(seed ()) ~full:!full w)
      in
      let dt = Unix.gettimeofday () -. t0 in
      experiment_times := (w, dt) :: !experiment_times;
      Printf.printf "%s\n(%s regenerated in %.1fs)\n\n%!" body w dt)
    !experiments_requested

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ---------- chaos soak -------------------------------------------- *)

(* Resilience proof under fault injection: expected replies are
   computed by a pristine in-process session first, then the
   ADI_FAILPOINTS environment (if any) is armed and K resilient
   clients hammer a live socket server.  Every reply that gets
   through must match the offline result byte for byte (modulo the
   "cached" flag); a single wrong byte fails the bench.  The summary
   lands in the BENCH_adi.json entry as a "soak" object. *)

let soak_summary = ref None
let fleet_summary = ref None
let diagnosis_summary = ref None
let scaling_summary = ref None

(* Strips "cached" fields at every depth: diagnose replies carry a
   nested dictionary-cache flag besides the top-level setup one. *)
let rec strip_cached = function
  | Util.Json.Obj fields ->
      Util.Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "cached" then None else Some (k, strip_cached v))
           fields)
  | j -> j

(* Nearest-rank percentile over a sorted sample array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min idx (n - 1)))

(* Per-op latency percentiles from (op, seconds) samples, as JSON
   objects — the soak/fleet entries CI asserts the schema of. *)
let latency_fields samples =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (op, s) ->
      Hashtbl.replace tbl op (s :: Option.value ~default:[] (Hashtbl.find_opt tbl op)))
    samples;
  List.map
    (fun op ->
      let xs = Array.of_list (Hashtbl.find tbl op) in
      Array.sort compare xs;
      Printf.sprintf "{\"op\": \"%s\", \"count\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f}"
        (json_escape op) (Array.length xs)
        (1000.0 *. percentile xs 50.0)
        (1000.0 *. percentile xs 99.0))
    (List.sort_uniq compare (List.map fst samples))

let soak_ops () =
  let circuit name = ("circuit", Util.Json.Str name) in
  [ ("adi", [ circuit "c17" ]);
    ("order", [ circuit "c17" ]);
    ("atpg", [ circuit "c17" ]);
    ("adi", [ circuit "lion" ]);
    ("order", [ circuit "syn208"; ("limit", Util.Json.Int 10) ]);
    ("load", [ circuit "syn208" ]);
    ("diagnose", [ circuit "c17" ]);
    ("diagnose",
     [ circuit "c17"; ("fails", Util.Json.Arr [ Util.Json.Int 0 ]);
       ("limit", Util.Json.Int 3) ]) ]

let run_soak_stage () =
  let ops = Array.of_list (soak_ops ()) in
  let clients = 4 and per_client = 24 in
  let spec = try Sys.getenv "ADI_FAILPOINTS" with Not_found -> "" in
  Printf.printf "Chaos soak (%d clients x %d requests, failpoints: %s):\n%!" clients
    per_client
    (if spec = "" then "none" else spec);
  (* Ground truth before any fault is armed. *)
  let expected =
    let pristine = Service.Session.create ~capacity:16 ~jobs:1 () in
    Array.map
      (fun (op, params) ->
        match
          (Service.Session.handle pristine (Service.Protocol.single op params))
            .Service.Protocol.payload
        with
        | Ok (Service.Protocol.Result j) -> Util.Json.to_string (strip_cached j)
        | Ok _ -> failwith "soak: offline pipeline returned an unexpected reply shape"
        | Error e -> failwith ("soak: offline pipeline failed: " ^ e.Service.Protocol.message))
      ops
  in
  Util.Failpoint.install_from_env ();
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adi-soak-%d.sock" (Unix.getpid ()))
  in
  let address = Service.Server.Unix_socket path in
  (* A deliberately tight cache over a spill directory, so the soak
     exercises eviction, spill writes, and spill reloads — the store
     failpoint sites are live, not just the wire ones. *)
  let spill_dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "adi-soak-spill-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let session = Service.Session.create ~capacity:2 ~spill_dir ~jobs:1 () in
  let server =
    Service.Server.create ~workers:4 ~max_inflight:4 (Service.Session.backend session) address
  in
  let ready = Atomic.make false in
  let server_domain =
    Domain.spawn (fun () ->
        Service.Server.serve server ~on_ready:(fun () -> Atomic.set ready true))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let client_run k () =
    let policy =
      { Service.Client.default_policy with
        Util.Retry.max_attempts = 8;
        overall_budget_s = Some 60.0 }
    in
    let client = Service.Client.create ~policy ~seed:(100 + k) address in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let ok = ref 0 and wrong = ref 0 and failed = ref 0 in
        let samples = ref [] in
        for i = 0 to per_client - 1 do
          let idx = (k + i) mod Array.length ops in
          let op, params = ops.(idx) in
          let t0 = Unix.gettimeofday () in
          let note () = samples := (op, Unix.gettimeofday () -. t0) :: !samples in
          match Service.Client.request client op params with
          | Ok j ->
              note ();
              if Util.Json.to_string (strip_cached j) = expected.(idx) then incr ok
              else incr wrong
          | Error _ ->
              note ();
              incr failed
          | exception Util.Diagnostics.Failed _ ->
              note ();
              incr failed
        done;
        (!ok, !wrong, !failed, Service.Client.retries client, !samples))
  in
  let workers = Array.init clients (fun k -> Domain.spawn (client_run k)) in
  let results = Array.map Domain.join workers in
  (* Drain the server through the front door, resiliently. *)
  let stopper = Service.Client.create address in
  (try ignore (Service.Client.request stopper ~timeout_s:30.0 "shutdown" [])
   with Util.Diagnostics.Failed _ -> Service.Server.request_stop server);
  Service.Client.close stopper;
  Domain.join server_domain;
  Util.Failpoint.clear ();
  let ok = Array.fold_left (fun a (x, _, _, _, _) -> a + x) 0 results in
  let wrong = Array.fold_left (fun a (_, x, _, _, _) -> a + x) 0 results in
  let failed = Array.fold_left (fun a (_, _, x, _, _) -> a + x) 0 results in
  let retries = Array.fold_left (fun a (_, _, _, x, _) -> a + x) 0 results in
  let samples = Array.fold_left (fun a (_, _, _, _, xs) -> xs @ a) [] results in
  let shed = Service.Session.shed_count session in
  let lane_restarts = Service.Server.lane_restarts server in
  Printf.printf
    "  %d requests: %d ok, %d wrong, %d failed; %d retries, %d shed, %d lane restarts\n%!"
    (clients * per_client) ok wrong failed retries shed lane_restarts;
  soak_summary :=
    Some
      (Printf.sprintf
         "{\"clients\": %d, \"requests\": %d, \"ok\": %d, \"wrong\": %d, \"failed\": %d, \
          \"retries\": %d, \"shed\": %d, \"lane_restarts\": %d, \"failpoints\": \"%s\", \
          \"latency\": [%s]}"
         clients (clients * per_client) ok wrong failed retries shed lane_restarts
         (json_escape spec)
         (String.concat ", " (latency_fields samples)));
  if wrong > 0 then failwith "bench: soak produced wrong results (byte-identity violated)";
  Printf.printf "  every successful reply byte-identical to the offline pipeline\n\n%!"

(* ---------- fleet soak -------------------------------------------- *)

(* The same byte-identity proof, one layer up: an adi-router in front
   of two shared-spill workers, hammered by concurrent clients sending
   protocol v2 batch requests.  Every per-item reply that gets through
   must match the offline pipeline byte for byte; routing counters and
   per-op latency percentiles land in the BENCH_adi.json entry as a
   "fleet" object. *)

let fleet_batches () =
  let circuit name = ("circuit", Util.Json.Str name) in
  [ (Service.Protocol.Adi, [ [ circuit "c17" ]; [ circuit "lion" ]; [ circuit "syn208" ] ]);
    (Service.Protocol.Order,
     [ [ circuit "c17" ]; [ circuit "syn208"; ("limit", Util.Json.Int 10) ] ]);
    (Service.Protocol.Atpg, [ [ circuit "c17" ] ]);
    (Service.Protocol.Diagnose,
     [ [ circuit "c17" ];
       [ circuit "c17"; ("fails", Util.Json.Arr [ Util.Json.Int 0 ]) ] ]) ]

let run_fleet_stage () =
  let batches = fleet_batches () in
  let clients = 4 and rounds = 6 in
  let spec = try Sys.getenv "ADI_FAILPOINTS" with Not_found -> "" in
  Printf.printf "Fleet soak (router + 2 workers, %d clients x %d batch rounds, failpoints: %s):\n%!"
    clients rounds
    (if spec = "" then "none" else spec);
  (* Ground truth per batch item, from a pristine in-process session. *)
  let expected =
    let pristine = Service.Session.create ~capacity:16 ~jobs:1 () in
    List.map
      (fun (op, items) ->
        ( op,
          List.map
            (fun params ->
              match
                (Service.Session.handle pristine
                   { Service.Protocol.id = 1; call = Service.Protocol.Single (op, params) })
                  .Service.Protocol.payload
              with
              | Ok (Service.Protocol.Result j) -> Util.Json.to_string (strip_cached j)
              | Ok _ -> failwith "fleet: offline pipeline returned an unexpected reply shape"
              | Error e ->
                  failwith ("fleet: offline pipeline failed: " ^ e.Service.Protocol.message))
            items ))
      batches
  in
  Util.Failpoint.install_from_env ();
  let tmp = Filename.get_temp_dir_name () in
  let sock name = Filename.concat tmp (Printf.sprintf "adi-fleet-%s-%d.sock" name (Unix.getpid ())) in
  let spill_dir =
    let d = Filename.concat tmp (Printf.sprintf "adi-fleet-spill-%d" (Unix.getpid ())) in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  (* Two tight-cache workers over one shared write-through spill dir:
     a miss on one worker can be a disk hit seeded by the other. *)
  let start_worker name =
    let address = Service.Server.Unix_socket (sock name) in
    let session = Service.Session.create ~capacity:2 ~spill_dir ~shared_spill:true ~jobs:1 () in
    let server =
      Service.Server.create ~workers:2 ~max_inflight:4 (Service.Session.backend session)
        address
    in
    let ready = Atomic.make false in
    let domain =
      Domain.spawn (fun () ->
          Service.Server.serve server ~on_ready:(fun () -> Atomic.set ready true))
    in
    while not (Atomic.get ready) do
      Unix.sleepf 0.005
    done;
    (address, server, domain)
  in
  let w0 = start_worker "w0" and w1 = start_worker "w1" in
  let worker_addresses = [ (fun (a, _, _) -> a) w0; (fun (a, _, _) -> a) w1 ] in
  let router = Service.Router.create worker_addresses in
  let front = Service.Server.Unix_socket (sock "router") in
  let router_server =
    Service.Server.create ~workers:4 ~max_inflight:8 (Service.Router.backend router) front
  in
  let router_ready = Atomic.make false in
  let router_domain =
    Domain.spawn (fun () ->
        Service.Server.serve router_server ~on_ready:(fun () -> Atomic.set router_ready true))
  in
  while not (Atomic.get router_ready) do
    Unix.sleepf 0.005
  done;
  let client_run k () =
    let policy =
      { Service.Client.default_policy with
        Util.Retry.max_attempts = 8;
        overall_budget_s = Some 60.0 }
    in
    let client = Service.Client.create ~policy ~seed:(200 + k) front in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let ok = ref 0 and wrong = ref 0 and failed = ref 0 in
        let samples = ref [] in
        for _ = 1 to rounds do
          List.iter
            (fun (op, items) ->
              let want = List.assoc op expected in
              let name = "batch_" ^ Service.Protocol.op_name op in
              let t0 = Unix.gettimeofday () in
              match Service.Client.batch client op items with
              | Ok replies ->
                  samples := (name, Unix.gettimeofday () -. t0) :: !samples;
                  List.iter2
                    (fun reply want ->
                      match reply with
                      | Ok j ->
                          if Util.Json.to_string (strip_cached j) = want then incr ok
                          else incr wrong
                      | Error _ -> incr failed)
                    replies want
              | Error _ ->
                  samples := (name, Unix.gettimeofday () -. t0) :: !samples;
                  failed := !failed + List.length items)
            batches
        done;
        (!ok, !wrong, !failed, Service.Client.retries client, !samples))
  in
  let runners = Array.init clients (fun k -> Domain.spawn (client_run k)) in
  let results = Array.map Domain.join runners in
  (* Drain the router through its front door, then the workers. *)
  let stopper = Service.Client.create front in
  (try ignore (Service.Client.request stopper ~timeout_s:30.0 "shutdown" [])
   with Util.Diagnostics.Failed _ -> Service.Server.request_stop router_server);
  Service.Client.close stopper;
  Domain.join router_domain;
  Service.Router.drain_fleet router;
  List.iter
    (fun (_, server, domain) ->
      Service.Server.request_stop server;
      Domain.join domain)
    [ w0; w1 ];
  Util.Failpoint.clear ();
  let ok = Array.fold_left (fun a (x, _, _, _, _) -> a + x) 0 results in
  let wrong = Array.fold_left (fun a (_, x, _, _, _) -> a + x) 0 results in
  let failed = Array.fold_left (fun a (_, _, x, _, _) -> a + x) 0 results in
  let retries = Array.fold_left (fun a (_, _, _, x, _) -> a + x) 0 results in
  let samples = Array.fold_left (fun a (_, _, _, _, xs) -> xs @ a) [] results in
  let hits, moves = Service.Router.affinity router in
  let failovers = Service.Router.failovers router in
  let items_per_round = List.fold_left (fun a (_, items) -> a + List.length items) 0 batches in
  let items = clients * rounds * items_per_round in
  Printf.printf
    "  %d batch items: %d ok, %d wrong, %d failed; %d retries, affinity %d/%d, %d failovers\n%!"
    items ok wrong failed retries hits (hits + moves) failovers;
  fleet_summary :=
    Some
      (Printf.sprintf
         "{\"clients\": %d, \"workers\": 2, \"batches\": %d, \"items\": %d, \"ok\": %d, \
          \"wrong\": %d, \"failed\": %d, \"retries\": %d, \"affinity_hits\": %d, \
          \"affinity_moves\": %d, \"failovers\": %d, \"failpoints\": \"%s\", \
          \"latency\": [%s]}"
         clients
         (clients * rounds * List.length batches)
         items ok wrong failed retries hits moves failovers (json_escape spec)
         (String.concat ", " (latency_fields samples)));
  if wrong > 0 then failwith "bench: fleet soak produced wrong results (byte-identity violated)";
  Printf.printf "  every successful batch item byte-identical to the offline pipeline\n\n%!"

(* ---------- parallel fault-simulation kernels --------------------- *)

(* Wall-time the non-dropping simulation of a sizeable pattern set on
   the largest requested suite circuit, one lane (event) vs. the
   jobs-sized pool (stem) vs. wide single-lane superblocks, check they
   all agree word for word, and leave the numbers in BENCH_adi.json. *)

(* BENCH_adi.json is a history: {"schema": "bench_adi/v2", "entries":
   [...]} with one single-line object per bench run, newest last, so
   successive runs can be compared (jq '.entries[-1]' for the latest).
   A pre-history v1 file (one bare object) is folded in as the first
   entry rather than discarded. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let existing_entries path =
  match read_file path with
  | None -> []
  | Some content ->
      let lines = List.map String.trim (String.split_on_char '\n' content) in
      let drop_comma l =
        let n = String.length l in
        if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l
      in
      if List.mem "\"schema\": \"bench_adi/v2\"," lines then
        (* Each entry is one line between "entries": [ and its ]. *)
        let rec skip = function
          | [] -> []
          | "\"entries\": [" :: tl -> collect tl []
          | _ :: tl -> skip tl
        and collect lines acc =
          match lines with
          | [] | "]" :: _ -> List.rev acc
          | l :: tl -> collect tl (drop_comma l :: acc)
        in
        skip lines
      else if List.exists (fun l -> l = "\"schema\": \"bench_adi/v1\",") lines then
        (* Minify the whole v1 object onto one line and keep it. *)
        [ String.concat " " (List.filter (fun l -> l <> "") lines) ]
      else []

let iso8601_utc () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* Per-phase wall-clock aggregates from the current tracer (when
   --metrics/--trace is on): the "span:<phase>" histograms. *)
let phase_fields () =
  let tr = Util.Trace.current () in
  if not (Util.Trace.enabled tr) then []
  else
    let prefix = Util.Metrics.span_prefix in
    let plen = String.length prefix in
    List.filter_map
      (fun h ->
        let name = Util.Metrics.histogram_name h in
        if String.length name > plen && String.sub name 0 plen = prefix then
          Some
            (Printf.sprintf "{\"phase\": \"%s\", \"calls\": %d, \"total_s\": %.6f}"
               (json_escape (String.sub name plen (String.length name - plen)))
               (Util.Metrics.observations h) (Util.Metrics.total h))
        else None)
      (Util.Metrics.histograms (Util.Trace.metrics tr))

let write_bench_json ~circuit ~collapse ~kernels ~speedup ~atpg =
  let b = Buffer.create 1024 in
  let bf fmt = Printf.bprintf b fmt in
  bf "{\"timestamp\": \"%s\", \"seed\": %d, \"jobs\": %d, \"circuit\": \"%s\", "
    (iso8601_utc ()) (seed ()) (jobs ()) (json_escape circuit);
  (let st = collapse.Collapse.stages in
   bf
     "\"collapse\": {\"full\": %d, \"equivalence\": %d, \"prime\": %d, \
      \"checkpoints\": %d, \"probes\": %d, \"equivalence_ratio\": %.3f, \
      \"dominance_ratio\": %.3f}, "
     st.Collapse.full st.Collapse.equivalence st.Collapse.prime st.Collapse.checkpoints
     st.Collapse.probes (Collapse.collapse_ratio collapse)
     (Collapse.dominance_ratio collapse));
  bf "\"kernels\": [";
  List.iteri
    (fun i (name, kjobs, wall_s) ->
      bf "%s{\"name\": \"%s\", \"circuit\": \"%s\", \"jobs\": %d, \"wall_s\": %.6f}"
        (if i = 0 then "" else ", ")
        (json_escape name) (json_escape circuit) kjobs wall_s)
    kernels;
  bf "], \"speedup_detection_sets\": %.3f, " speedup;
  (let serial_s, atpg_s, window, committed, wasted = atpg in
   bf
     "\"atpg\": {\"serial_s\": %.6f, \"atpg_s\": %.6f, \"window\": %d, \"jobs\": %d, \
      \"speedup\": %.3f, \"spec_committed\": %d, \"spec_wasted\": %d}, "
     serial_s atpg_s window (jobs ())
     (if atpg_s > 0.0 then serial_s /. atpg_s else 0.0)
     committed wasted);
  bf "\"experiments\": [";
  List.iteri
    (fun i (name, wall_s) ->
      bf "%s{\"name\": \"%s\", \"wall_s\": %.3f}"
        (if i = 0 then "" else ", ")
        (json_escape name) wall_s)
    (List.rev !experiment_times);
  bf "]";
  (match !soak_summary with
  | None -> ()
  | Some soak -> bf ", \"soak\": %s" soak);
  (match !fleet_summary with
  | None -> ()
  | Some fleet -> bf ", \"fleet\": %s" fleet);
  (match !diagnosis_summary with
  | None -> ()
  | Some diagnosis -> bf ", \"diagnosis\": %s" diagnosis);
  (match !scaling_summary with
  | None -> ()
  | Some scaling -> bf ", \"scaling\": %s" scaling);
  (match phase_fields () with
  | [] -> ()
  | phases -> bf ", \"phases\": [%s]" (String.concat ", " phases));
  bf "}";
  let entries =
    Bench_history.prune ~keep:!history_keep
      (existing_entries "BENCH_adi.json" @ [ Buffer.contents b ])
  in
  let oc = open_out "BENCH_adi.json" in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"bench_adi/v2\",\n";
  pf "  \"entries\": [\n";
  let n = List.length entries in
  List.iteri (fun i e -> pf "    %s%s\n" e (if i = n - 1 then "" else ",")) entries;
  pf "  ]\n";
  pf "}\n"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---------- diagnosis study --------------------------------------- *)

(* Tests-to-unique-diagnosis under the three fault orders the paper
   compares: per ATPG order, build the full-response dictionary over
   its generated tests and compare the generation order against the
   greedy diagnostic reordering.  The diagnostic order must not lose
   to the generation order; the numbers land in BENCH_adi.json as a
   "diagnosis" object. *)

let run_diagnosis_stage () =
  let name = if !full then "syn1196" else "syn208" in
  let c = Suite.build_by_name name in
  let setup = Pipeline.prepare !bench_cfg c in
  Printf.printf "Diagnosis study (%s, %d collapsed faults):\n%!" name
    (Fault_list.count setup.Pipeline.faults);
  let rows =
    List.map
      (fun ord ->
        let r = Pipeline.run_order setup ord in
        let tests = r.Pipeline.engine.Engine.tests in
        let dict, build_s =
          time (fun () ->
              Diagnosis.Dictionary.build ~jobs:(jobs ()) setup.Pipeline.faults tests)
        in
        let nt = Diagnosis.Dictionary.test_count dict in
        let mean_gen = Diagnosis.Select.mean_tests_to_unique dict (Array.init nt Fun.id) in
        let mean_diag = Diagnosis.Select.mean_tests_to_unique dict (Diagnosis.Select.order dict) in
        Printf.printf
          "  %-5s %4d tests, %4d classes, build %.3f s; mean tests-to-unique: \
           generation %.2f, diagnostic %.2f\n%!"
          (Ordering.to_string ord) nt
          (Diagnosis.Dictionary.resolution dict)
          build_s mean_gen mean_diag;
        if mean_diag > mean_gen +. 1e-9 then
          failwith "bench: diagnostic order lost to the generation order";
        Printf.sprintf
          "{\"order\": \"%s\", \"tests\": %d, \"classes\": %d, \"build_s\": %.6f, \
           \"mean_tests_to_unique_generation\": %.4f, \
           \"mean_tests_to_unique_diagnostic\": %.4f}"
          (json_escape (Ordering.to_string ord))
          nt
          (Diagnosis.Dictionary.resolution dict)
          build_s mean_gen mean_diag)
      [ Ordering.Orig; Ordering.Dynm; Ordering.Dynm0 ]
  in
  diagnosis_summary :=
    Some
      (Printf.sprintf "{\"circuit\": \"%s\", \"faults\": %d, \"orders\": [%s]}"
         (json_escape name)
         (Fault_list.count setup.Pipeline.faults)
         (String.concat ", " rows));
  Printf.printf "  diagnostic order never lost to the generation order\n\n%!"

(* ---------- scaling study ----------------------------------------- *)

(* Wide-block throughput at scale: a generated circuit far past the
   suite sizes (>= 10^5 gates by default, --gen overrides the spec), a
   spread fault sample, and a jobs x block-width grid of non-dropping
   detection_sets runs — every grid point asserted word-identical to
   the event kernel at width 1 — followed by a time-budgeted
   speculative ATPG burst.  The numbers, and the circuit's structural
   digest (the determinism witness), land in the BENCH_adi.json entry
   as a "scaling" object; CI's perf gate checks its schema. *)

let run_scaling_stage () =
  let spec = Generate.spec_of_string !scaling_gen in
  let c, build_s = time (fun () -> Generate.build spec) in
  let digest = Generate.digest c in
  Printf.printf
    "Scaling study (%s):\n\
    \  %d gates, %d inputs, %d outputs, depth %d (built in %.2f s)\n\
    \  digest %s\n%!"
    (Generate.spec_to_string spec) (Circuit.gate_count c)
    (Array.length (Circuit.inputs c))
    (Array.length (Circuit.outputs c))
    (Circuit.depth c) build_s digest;
  (* An evenly spread fault sample keeps the grid tractable at
     10^5..10^6 gates while still spanning the whole netlist. *)
  let full_fl = Fault_list.full c in
  let nfull = Fault_list.count full_fl in
  let nsample = min 1000 nfull in
  let fl = Fault_list.sub full_fl (Array.init nsample (fun i -> i * (nfull / nsample))) in
  let rng = Util.Rng.create (seed ()) in
  let pats =
    Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:1024
  in
  Printf.printf "  %d sampled faults (of %d), %d patterns\n%!" nsample nfull
    (Patterns.count pats);
  let reference, t_ref = time (fun () -> Faultsim.detection_sets fl pats) in
  Printf.printf "  detection_sets  event jobs=1 w=1  %8.3f s (reference)\n%!" t_ref;
  let identical sets =
    let ok = ref true in
    Array.iteri (fun i d -> if not (Util.Bitvec.equal d sets.(i)) then ok := false) reference;
    !ok
  in
  let grid =
    List.concat_map
      (fun j ->
        List.map
          (fun w ->
            let sets, t =
              time (fun () ->
                  Faultsim.detection_sets ~jobs:j ~kernel:Faultsim.Stem ~block_width:w
                    fl pats)
            in
            Printf.printf "  detection_sets  stem  jobs=%d w=%d  %8.3f s\n%!" j w t;
            if not (identical sets) then
              failwith "bench: scaling grid point differs from the event/width-1 reference";
            Printf.sprintf
              "{\"jobs\": %d, \"block_width\": %d, \"wall_s\": %.6f, \"identical\": true}"
              j w t)
          [ 1; 2; 4; 8 ])
      (List.sort_uniq compare [ 1; jobs () ])
  in
  (* Speculative ATPG burst under a whole-run wall-clock budget: how
     far the engine gets on the sampled universe in a fixed slice. *)
  let budget_s = 5.0 in
  let ecfg = Run_config.engine_config !bench_cfg in
  let window = max 2 ecfg.Engine.window in
  let config =
    { ecfg with Engine.jobs = jobs (); window; time_budget_s = Some budget_s }
  in
  let r, t_atpg =
    time (fun () -> Engine.run ~config fl ~order:(Array.init nsample Fun.id))
  in
  let ntests = Patterns.count r.Engine.tests in
  let detected =
    Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 r.Engine.detected_by
  in
  Printf.printf
    "  atpg  jobs=%d window=%d budget=%.0fs: %d tests, %d/%d detected in %.3f s%s\n\n%!"
    (jobs ()) window budget_s ntests detected nsample t_atpg
    (if r.Engine.interrupted then " (budget expired)" else "");
  scaling_summary :=
    Some
      (Printf.sprintf
         "{\"spec\": \"%s\", \"digest\": \"%s\", \"gates\": %d, \"inputs\": %d, \
          \"outputs\": %d, \"depth\": %d, \"build_s\": %.6f, \"faults_sampled\": %d, \
          \"faults_full\": %d, \"patterns\": %d, \"reference_wall_s\": %.6f, \
          \"grid\": [%s], \"atpg\": {\"budget_s\": %.1f, \"jobs\": %d, \"window\": %d, \
          \"wall_s\": %.6f, \"tests\": %d, \"detected\": %d, \"interrupted\": %s, \
          \"tests_per_s\": %.2f}}"
         (json_escape (Generate.spec_to_string spec))
         (json_escape digest) (Circuit.gate_count c)
         (Array.length (Circuit.inputs c))
         (Array.length (Circuit.outputs c))
         (Circuit.depth c) build_s nsample nfull (Patterns.count pats) t_ref
         (String.concat ", " grid) budget_s (jobs ()) window t_atpg ntests detected
         (if r.Engine.interrupted then "true" else "false")
         (if t_atpg > 0.0 then float_of_int ntests /. t_atpg else 0.0))

let run_perf_kernels () =
  let name = if !full then "syn5378" else "syn1196" in
  let jobs = jobs () in
  let c = Suite.build_by_name name in
  let collapse = Collapse.equivalence (Fault_list.full c) in
  let fl = collapse.Collapse.representatives in
  let rng = Util.Rng.create (seed ()) in
  let pats =
    Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:4096
  in
  let st = collapse.Collapse.stages in
  Printf.printf "Parallel fault-simulation kernels (%s, %d faults, %d patterns):\n%!" name
    (Fault_list.count fl) (Patterns.count pats);
  Printf.printf
    "  collapse: %d full -> %d classes -> %d prime (dominance), %d probe sites\n%!"
    st.Collapse.full st.Collapse.equivalence st.Collapse.prime st.Collapse.probes;
  let serial, t_serial = time (fun () -> Faultsim.detection_sets fl pats) in
  Printf.printf "  detection_sets  jobs=1            %8.3f s\n%!" t_serial;
  let pooled, t_pooled = time (fun () -> Faultsim.detection_sets ~jobs fl pats) in
  Printf.printf "  detection_sets  jobs=%-4d         %8.3f s\n%!" jobs t_pooled;
  (* Wide superblocks: the kernels over 4- and 8-word lanes
     (256 / 512 patterns per pass), still single-domain. *)
  let stem_w4, t_stem_w4 =
    time (fun () -> Faultsim.detection_sets ~kernel:Faultsim.Stem ~block_width:4 fl pats)
  in
  Printf.printf "  detection_sets  stem w4 (1 dom)   %8.3f s\n%!" t_stem_w4;
  let stem_w8, t_stem_w8 =
    time (fun () -> Faultsim.detection_sets ~kernel:Faultsim.Stem ~block_width:8 fl pats)
  in
  Printf.printf "  detection_sets  stem w8 (1 dom)   %8.3f s\n%!" t_stem_w8;
  let event_w8, t_event_w8 =
    time (fun () -> Faultsim.detection_sets ~block_width:8 fl pats)
  in
  Printf.printf "  detection_sets  event w8 (1 dom)  %8.3f s\n%!" t_event_w8;
  (* The dominance row times the target-list reduction: the prime
     (dominance-surviving) universe under the stem kernel. *)
  let _, t_dom =
    time (fun () ->
        Faultsim.detection_sets ~kernel:Faultsim.Stem collapse.Collapse.prime pats)
  in
  Printf.printf "  detection_sets  dominance (prime) %8.3f s\n%!" t_dom;
  Array.iteri
    (fun i d ->
      if
        (not (Util.Bitvec.equal d pooled.(i)))
        || (not (Util.Bitvec.equal d stem_w4.(i)))
        || (not (Util.Bitvec.equal d stem_w8.(i)))
        || not (Util.Bitvec.equal d event_w8.(i))
      then failwith "bench: kernel/width detection sets differ from serial")
    serial;
  let speedup = t_serial /. t_pooled in
  Printf.printf
    "  all five agree word-for-word; speedup (jobs=%d vs serial): %.2fx, \
     (stem w8 vs event w1): %.2fx\n\n%!"
    jobs speedup
    (if t_stem_w8 > 0.0 then t_serial /. t_stem_w8 else 0.0);
  (* ATPG phase: serial engine vs speculative lookahead, same prepared
     setup, byte-identical test sets by construction (checked). *)
  let cfg = !bench_cfg in
  let setup = Pipeline.prepare cfg c in
  let ecfg = Run_config.engine_config cfg in
  let window = max 2 ecfg.Engine.window in
  let serial_cfg = { ecfg with Engine.jobs = 1; window = 1 } in
  let spec_cfg = { ecfg with Engine.jobs = jobs; window } in
  Printf.printf "ATPG phase (%s, order %s):\n%!" name
    (Ordering.to_string cfg.Run_config.order);
  let r_serial, t_atpg_serial =
    time (fun () -> Pipeline.run_order_with serial_cfg setup cfg.Run_config.order)
  in
  Printf.printf "  atpg  jobs=1 window=1          %8.3f s\n%!" t_atpg_serial;
  let r_spec, t_atpg_spec =
    time (fun () -> Pipeline.run_order_with spec_cfg setup cfg.Run_config.order)
  in
  Printf.printf "  atpg  jobs=%-3d window=%-4d     %8.3f s\n%!" jobs window t_atpg_spec;
  let es = r_serial.Pipeline.engine and ep = r_spec.Pipeline.engine in
  if
    Patterns.to_strings es.Engine.tests <> Patterns.to_strings ep.Engine.tests
    || es.Engine.detected_by <> ep.Engine.detected_by
    || es.Engine.untestable <> ep.Engine.untestable
    || es.Engine.aborted <> ep.Engine.aborted
  then failwith "bench: speculative ATPG differs from the serial run";
  Printf.printf
    "  byte-identical tests; speedup %.2fx; %d committed, %d wasted (%.0f%% waste)\n\n%!"
    (if t_atpg_spec > 0.0 then t_atpg_serial /. t_atpg_spec else 0.0)
    ep.Engine.spec_committed ep.Engine.spec_wasted
    (if ep.Engine.spec_dispatched > 0 then
       100.0 *. float_of_int ep.Engine.spec_wasted /. float_of_int ep.Engine.spec_dispatched
     else 0.0);
  write_bench_json ~circuit:name ~collapse
    ~kernels:
      [
        ("detection_sets/serial", 1, t_serial);
        (Printf.sprintf "detection_sets/jobs%d" jobs, jobs, t_pooled);
        ("detection_sets/stem_w4", 1, t_stem_w4);
        ("detection_sets/stem_w8", 1, t_stem_w8);
        ("detection_sets/event_w8", 1, t_event_w8);
        ("detection_sets/dominance", 1, t_dom);
        ("atpg/serial", 1, t_atpg_serial);
        (Printf.sprintf "atpg/spec_w%d" window, jobs, t_atpg_spec);
      ]
    ~speedup
    ~atpg:(t_atpg_serial, t_atpg_spec, window, ep.Engine.spec_committed, ep.Engine.spec_wasted);
  Printf.printf "(appended to BENCH_adi.json)\n\n%!"

(* ---------- Bechamel micro-benchmarks ----------------------------- *)

open Bechamel
open Toolkit

(* Kernels, one per paper artefact: the dominant computation each
   table/figure adds on top of the previous ones. *)

let lion_faults = lazy (Collapse.collapsed (Kiss.to_combinational (Kiss.lion ())))

let small_setup =
  lazy
    (let c = Suite.build_by_name "syn208" in
     Pipeline.prepare (Run_config.with_seed 1 Run_config.default) c)

let bench_table1 =
  (* Table 1: exhaustive non-dropping fault simulation + ndet on lion. *)
  Test.make ~name:"table1/lion-exhaustive-adi"
    (Staged.stage (fun () ->
         let fl = Lazy.force lion_faults in
         let u = Patterns.exhaustive ~n_inputs:4 in
         ignore (Adi_index.compute fl u)))

let bench_table4 =
  (* Table 4: ADI computation (non-dropping sim over U) on syn208. *)
  Test.make ~name:"table4/syn208-adi-compute"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore
           (Adi_index.compute setup.Pipeline.faults setup.Pipeline.selection.Adi_index.u)))

let bench_table5 =
  (* Table 5: one full ATPG run under F0dynm on syn208. *)
  Test.make ~name:"table5/syn208-atpg-0dynm"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore (Pipeline.run_order setup Ordering.Dynm0)))

let bench_table6 =
  (* Table 6's overhead: computing the dynamic order itself. *)
  Test.make ~name:"table6/syn208-dynamic-order"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore (Ordering.order Ordering.Dynm setup.Pipeline.adi)))

let bench_table7 =
  (* Table 7: coverage curve + AVE from a finished run. *)
  let run =
    lazy
      (let setup = Lazy.force small_setup in
       (setup, Pipeline.run_order setup Ordering.Dynm))
  in
  Test.make ~name:"table7/syn208-ave"
    (Staged.stage (fun () ->
         let setup, r = Lazy.force run in
         ignore
           (Coverage.ave (Coverage.of_engine_result setup.Pipeline.faults r.Pipeline.engine))))

let bench_figure1 =
  (* Figure 1: curve points + ASCII rendering. *)
  let run =
    lazy
      (let setup = Lazy.force small_setup in
       (setup, Pipeline.run_order setup Ordering.Dynm))
  in
  Test.make ~name:"figure1/syn208-plot"
    (Staged.stage (fun () ->
         let setup, r = Lazy.force run in
         let curve = Coverage.of_engine_result setup.Pipeline.faults r.Pipeline.engine in
         ignore
           (Util.Plot.render ~x_label:"tests" ~y_label:"fc"
              [ { Util.Plot.marker = 'd'; points = Coverage.points curve; label = "dynm" } ])))

let bench_ablation_static =
  (* Ablation A1 kernel: the static sort-based order. *)
  Test.make ~name:"ablation-static/syn208-decr-order"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore (Ordering.order Ordering.Decr setup.Pipeline.adi)))

let bench_ablation_u =
  (* Ablation A2 kernel: the U-selection dropping simulation. *)
  Test.make ~name:"ablation-u/syn208-select-u"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         let rng = Util.Rng.create 1 in
         ignore (Adi_index.select_u ~pool:2000 rng setup.Pipeline.faults)))

let bench_ablation_ndetection =
  (* Ablation A3 kernel: capped (n-detection) detection sets. *)
  Test.make ~name:"ablation-ndetection/syn208-capped-sim"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore
           (Adi_index.compute_n_detection ~n:4 setup.Pipeline.faults
              setup.Pipeline.selection.Adi_index.u)))

let bench_ablation_estimator =
  (* Ablation A4 kernel: the average-estimator reduction. *)
  Test.make ~name:"ablation-estimator/syn208-avg-adi"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore
           (Adi_index.compute ~estimator:Adi_index.Average setup.Pipeline.faults
              setup.Pipeline.selection.Adi_index.u)))

let bench_ablation_reorder =
  (* Ablation A5 kernel: greedy a-posteriori reordering. *)
  let data =
    lazy
      (let setup = Lazy.force small_setup in
       let r = Pipeline.run_order setup Ordering.Orig in
       (setup.Pipeline.faults, r.Pipeline.engine.Engine.tests))
  in
  Test.make ~name:"ablation-reorder/syn208-greedy"
    (Staged.stage (fun () ->
         let faults, tests = Lazy.force data in
         ignore (Reorder.greedy faults tests)))

let bench_ablation_independence =
  (* Ablation A6 kernel: FFR independent-set construction + ordering. *)
  Test.make ~name:"ablation-independence/syn208-order"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         ignore (Independence.order setup.Pipeline.adi)))

let bench_ablation_engines =
  (* Ablation A7 kernel: one D-algorithm run on a representative fault. *)
  let data =
    lazy
      (let c = Suite.build_by_name "c17" in
       (c, Scoap.compute c, Collapse.collapsed c))
  in
  Test.make ~name:"ablation-engines/c17-dalg"
    (Staged.stage (fun () ->
         let c, scoap, fl = Lazy.force data in
         for fi = 0 to Fault_list.count fl - 1 do
           ignore (Dalg.generate c scoap (Fault_list.get fl fi))
         done))

let bench_ablation_compaction =
  (* Ablation A8 kernel: one dynamic-compaction run on syn208. *)
  Test.make ~name:"ablation-compaction/syn208-dyncomp"
    (Staged.stage (fun () ->
         let setup = Lazy.force small_setup in
         let order = Ordering.order Ordering.Orig setup.Pipeline.adi in
         ignore (Engine.run_compacting setup.Pipeline.faults ~order)))

let bench_ablation_truncation =
  (* Ablation A9 kernel: curve construction + truncation sweep. *)
  let data =
    lazy
      (let setup = Lazy.force small_setup in
       let r = Pipeline.run_order setup Ordering.Dynm in
       Coverage.of_engine_result setup.Pipeline.faults r.Pipeline.engine)
  in
  Test.make ~name:"ablation-truncation/syn208-sweep"
    (Staged.stage (fun () ->
         let curve = Lazy.force data in
         let k = Coverage.tests curve in
         for p = 1 to 100 do
           ignore (Coverage.truncated_coverage curve ~keep:(k * p / 100))
         done))

let micro_tests =
  [
    bench_table1; bench_table4; bench_table5; bench_table6; bench_table7;
    bench_figure1; bench_ablation_static; bench_ablation_u;
    bench_ablation_ndetection; bench_ablation_estimator; bench_ablation_reorder;
    bench_ablation_independence; bench_ablation_engines; bench_ablation_compaction;
    bench_ablation_truncation;
  ]

let run_micro_benches () =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock):";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] when ns >= 1e6 ->
              Printf.printf "  %-36s %10.3f ms/run\n%!" name (ns /. 1e6)
          | Some [ ns ] -> Printf.printf "  %-36s %10.1f ns/run\n%!" name ns
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        analysed)
    micro_tests

let () =
  match
    parse_args ();
    Harness.with_observability !bench_cfg (fun () ->
        if !run_reports then print_reports ();
        if !run_soak then run_soak_stage ();
        if !run_fleet then run_fleet_stage ();
        if !run_diagnosis then run_diagnosis_stage ();
        if !run_scaling then run_scaling_stage ();
        if !run_perf then run_perf_kernels ();
        if !run_micro then run_micro_benches ())
  with
  | (), report -> Option.iter print_string report
  | exception Util.Diagnostics.Failed d ->
      prerr_endline (Util.Diagnostics.to_string d);
      exit 2
