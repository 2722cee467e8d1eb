(* Self-checking bench stages.

   Each stage measures one layer and asserts its verdict where the
   value is computed: a failed check prints the reason and exits 1.
   The bench writes no file; the paper's tables are regenerated by
   [adi-atpg experiment].

     dune exec bench/main.exe -- kernels           # syn1196 fault-sim kernels + ATPG
     dune exec bench/main.exe -- diagnosis         # tests-to-unique study on syn208
     dune exec bench/main.exe -- scaling           # >= 10^5-gate jobs grid
     dune exec bench/main.exe -- soak              # chaos soak of one server
     dune exec bench/main.exe -- fleet             # router + two workers soak
     dune exec bench/main.exe -- suite             # regenerate the 14 embedded netlists
     dune exec bench/main.exe -- --gen SPEC scaling

   Stages run in the order given.  The run-configuration flags
   (--seed, --jobs, --metrics, --trace, ...) are the same table-driven
   set the adi-atpg CLI uses (Run_flags); --jobs defaults to 4.  The
   soak and fleet stages arm ADI_FAILPOINTS after computing their
   expected replies. *)

let bench_cfg = ref (Run_config.with_jobs 4 Run_config.default)
let scaling_gen = ref "gates=120k,reconv=0.3,seed=7"
let seed () = !bench_cfg.Run_config.seed
let jobs () = !bench_cfg.Run_config.jobs
let cores = Domain.recommended_domain_count ()

exception Check_failed of string

let check ok fmt = Printf.ksprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

(* A wall-clock floor is a hard check only where the hardware can show
   it ([enforced]); elsewhere a miss is a warning. *)
let floor_check ~enforced ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then
        if enforced then raise (Check_failed msg)
        else
          Printf.printf "  warning: %s (not enforced: jobs %d, %d cores)\n%!" msg (jobs ()) cores)
    fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The event path the ATPG engine runs — width-1 [Faultsim.detect_block]
   per block and fault — as the reference every detection_sets row must
   match word for word. *)
let event_reference fl pats =
  let ws = Faultsim.workspace (Fault_list.circuit fl) in
  let good = Faultsim.good_arena ws in
  let count = Patterns.count pats in
  let sets = Array.init (Fault_list.count fl) (fun _ -> Util.Bitvec.create count) in
  for b = 0 to Patterns.blocks pats - 1 do
    Faultsim.load_good ws good pats b;
    let live = count - (b * 64) in
    let mask = if live >= 64 then -1L else Int64.sub (Int64.shift_left 1L live) 1L in
    Array.iteri
      (fun fi set ->
        let d = Int64.logand mask (Faultsim.detect_block ws ~good (Fault_list.get fl fi)) in
        if d <> 0L then (Util.Bitvec.words set).(b) <- d)
      sets
  done;
  sets

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

(* Per-op latency percentiles from (op, seconds) samples: one line per
   op, each checked for a sample and ordered percentiles. *)
let report_latency samples =
  let ops = List.sort_uniq compare (List.map fst samples) in
  check (ops <> []) "no latency samples";
  List.iter
    (fun op ->
      let xs =
        Array.of_list (List.filter_map (fun (o, s) -> if o = op then Some s else None) samples)
      in
      Array.sort compare xs;
      let p50 = 1000.0 *. percentile xs 50.0 and p99 = 1000.0 *. percentile xs 99.0 in
      Printf.printf "  %-14s %4d calls, p50 %9.3f ms, p99 %9.3f ms\n%!" op (Array.length xs) p50
        p99;
      check (p99 >= p50) "%s latency p99 %.3f ms below p50 %.3f ms" op p99 p50)
    ops

let failpoint_spec () = try Sys.getenv "ADI_FAILPOINTS" with Not_found -> ""

(* Serves [backend] on [address] from a fresh domain; returns once the
   socket accepts. *)
let start_server ~workers ~max_inflight backend address =
  let server = Service.Server.create ~workers ~max_inflight backend address in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () -> Service.Server.serve server ~on_ready:(fun () -> Atomic.set ready true))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  (server, domain)

let temp_path fmt = Printf.ksprintf (Filename.concat (Filename.get_temp_dir_name ())) fmt

(* A flat scratch directory (a spill dir), removed at exit. *)
let temp_dir fmt =
  Printf.ksprintf
    (fun name ->
      let d = temp_path "%s" name in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      at_exit (fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d);
      d)
    fmt

let resilient_client ~seed address =
  let policy =
    { Service.Client.default_policy with Util.Retry.max_attempts = 8; overall_budget_s = Some 60.0 }
  in
  Service.Client.create ~policy ~seed address

(* Drains a server through its front door, resiliently. *)
let shutdown_via address server domain =
  let stopper = Service.Client.create address in
  (match Service.Client.shutdown stopper ~timeout_s:30.0 () with
  | Ok _ -> ()
  | Error _ -> Service.Server.request_stop server);
  Service.Client.close stopper;
  Domain.join domain

(* The offline reply to one request, from a pristine in-process
   session: the byte-identity reference of the soaks. *)
let offline_reply session what op params =
  match
    (Service.Session.handle session { Service.Protocol.id = 1; call = Single (op, params) })
      .Service.Protocol.payload
  with
  | Ok (Service.Protocol.Result j) -> Util.Json.to_string (strip_cached j)
  | Ok _ -> failwith (what ^ ": offline pipeline returned an unexpected reply shape")
  | Error e -> failwith (what ^ ": offline pipeline failed: " ^ e.Service.Protocol.message)

let total results pick = Array.fold_left (fun a r -> a + pick r) 0 results

(* ---------- chaos soak -------------------------------------------- *)

(* Resilience under fault injection: expected replies are computed by a
   pristine in-process session first, then the ADI_FAILPOINTS
   environment (if any) is armed and 4 resilient clients send 24
   requests each to a live socket server.  Every reply that gets
   through must match the offline result byte for byte (modulo the
   "cached" flag), and every request must end ok or failed typed. *)

let soak_ops () =
  let circuit name = ("circuit", Util.Json.Str name) in
  Service.Protocol.
    [ (Adi, [ circuit "c17" ]);
      (Order, [ circuit "c17" ]);
      (Atpg, [ circuit "c17" ]);
      (Adi, [ circuit "lion" ]);
      (Order, [ circuit "syn208"; ("limit", Util.Json.Int 10) ]);
      (Load, [ circuit "syn208" ]);
      (Diagnose, [ circuit "c17" ]);
      (Diagnose,
       [ circuit "c17"; ("fails", Util.Json.Arr [ Util.Json.Int 0 ]);
         ("limit", Util.Json.Int 3) ]) ]

let run_soak () =
  let ops = Array.of_list (soak_ops ()) in
  let clients = 4 and per_client = 24 in
  let spec = failpoint_spec () in
  Printf.printf "Chaos soak (%d clients x %d requests, failpoints: %s):\n%!" clients per_client
    (if spec = "" then "none" else spec);
  let expected =
    let pristine = Service.Session.create ~capacity:16 ~jobs:1 () in
    Array.map (fun (op, params) -> offline_reply pristine "soak" op params) ops
  in
  Util.Failpoint.install_from_env ();
  let address = Service.Server.Unix_socket (temp_path "adi-soak-%d.sock" (Unix.getpid ())) in
  (* A deliberately tight cache over a spill directory, so the soak
     exercises eviction, spill writes, and spill reloads — the store
     failpoint sites are live, not just the wire ones. *)
  let spill_dir = temp_dir "adi-soak-spill-%d" (Unix.getpid ()) in
  let session = Service.Session.create ~capacity:2 ~spill_dir ~jobs:1 () in
  let server, server_domain =
    start_server ~workers:4 ~max_inflight:4 (Service.Session.backend session) address
  in
  let client_run k () =
    let client = resilient_client ~seed:(100 + k) address in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let ok = ref 0 and wrong = ref 0 and failed = ref 0 in
        let samples = ref [] in
        for i = 0 to per_client - 1 do
          let idx = (k + i) mod Array.length ops in
          let op, params = ops.(idx) in
          let t0 = Unix.gettimeofday () in
          let reply = Service.Client.single client op params in
          samples := (Service.Protocol.op_name op, Unix.gettimeofday () -. t0) :: !samples;
          match reply with
          | Ok j ->
              if Util.Json.to_string (strip_cached j) = expected.(idx) then incr ok
              else incr wrong
          | Error _ -> incr failed
        done;
        (!ok, !wrong, !failed, Service.Client.retries client, !samples))
  in
  let workers = Array.init clients (fun k -> Domain.spawn (client_run k)) in
  let results = Array.map Domain.join workers in
  shutdown_via address server server_domain;
  Util.Failpoint.clear ();
  let ok = total results (fun (x, _, _, _, _) -> x) in
  let wrong = total results (fun (_, x, _, _, _) -> x) in
  let failed = total results (fun (_, _, x, _, _) -> x) in
  let retries = total results (fun (_, _, _, x, _) -> x) in
  let samples = Array.fold_left (fun a (_, _, _, _, xs) -> xs @ a) [] results in
  let requests = List.length samples in
  Printf.printf
    "  %d requests: %d ok, %d wrong, %d failed; %d retries, %d shed, %d lane restarts\n%!"
    requests ok wrong failed retries
    (Service.Session.shed_count session)
    (Service.Server.lane_restarts server);
  report_latency samples;
  check (requests = 96) "soak issued %d requests, expected 96" requests;
  check (wrong = 0) "%d soak replies differ from the offline pipeline" wrong;
  check (ok + failed = requests) "soak outcomes %d ok + %d failed <> %d requests" ok failed
    requests;
  Printf.printf "  every successful reply byte-identical to the offline pipeline\n%!"

(* ---------- fleet soak -------------------------------------------- *)

(* The same byte-identity proof, one layer up: an adi-router in front
   of two shared-spill workers, driven by 4 concurrent clients sending
   batch requests.  Every per-item reply that gets through
   must match the offline pipeline byte for byte, and repeats must
   stay pinned to their owning worker. *)

let fleet_batches () =
  let circuit name = ("circuit", Util.Json.Str name) in
  [ (Service.Protocol.Adi, [ [ circuit "c17" ]; [ circuit "lion" ]; [ circuit "syn208" ] ]);
    (Service.Protocol.Order,
     [ [ circuit "c17" ]; [ circuit "syn208"; ("limit", Util.Json.Int 10) ] ]);
    (Service.Protocol.Atpg, [ [ circuit "c17" ] ]);
    (Service.Protocol.Diagnose,
     [ [ circuit "c17" ];
       [ circuit "c17"; ("fails", Util.Json.Arr [ Util.Json.Int 0 ]) ] ]) ]

let run_fleet () =
  let batches = fleet_batches () in
  let clients = 4 and rounds = 6 in
  let spec = failpoint_spec () in
  Printf.printf "Fleet soak (router + 2 workers, %d clients x %d batch rounds, failpoints: %s):\n%!"
    clients rounds
    (if spec = "" then "none" else spec);
  let expected =
    let pristine = Service.Session.create ~capacity:16 ~jobs:1 () in
    List.map
      (fun (op, items) ->
        (op, List.map (offline_reply pristine "fleet" op) items))
      batches
  in
  Util.Failpoint.install_from_env ();
  let pid = Unix.getpid () in
  let spill_dir = temp_dir "adi-fleet-spill-%d" pid in
  (* Two tight-cache workers over one shared write-through spill dir:
     a miss on one worker can be a disk hit seeded by the other. *)
  let start_worker name =
    let address = Service.Server.Unix_socket (temp_path "adi-fleet-%s-%d.sock" name pid) in
    let session = Service.Session.create ~capacity:2 ~spill_dir ~shared_spill:true ~jobs:1 () in
    let server, domain =
      start_server ~workers:2 ~max_inflight:4 (Service.Session.backend session) address
    in
    (address, server, domain)
  in
  let fleet = [ start_worker "w0"; start_worker "w1" ] in
  let router = Service.Router.create (List.map (fun (a, _, _) -> a) fleet) in
  let front = Service.Server.Unix_socket (temp_path "adi-fleet-router-%d.sock" pid) in
  let router_server, router_domain =
    start_server ~workers:4 ~max_inflight:8 (Service.Router.backend router) front
  in
  let client_run k () =
    let client = resilient_client ~seed:(200 + k) front in
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
  let workers = List.length (Service.Router.workers router) in
  shutdown_via front router_server router_domain;
  Service.Router.drain_fleet router;
  List.iter
    (fun (_, server, domain) ->
      Service.Server.request_stop server;
      Domain.join domain)
    fleet;
  Util.Failpoint.clear ();
  let ok = total results (fun (x, _, _, _, _) -> x) in
  let wrong = total results (fun (_, x, _, _, _) -> x) in
  let failed = total results (fun (_, _, x, _, _) -> x) in
  let retries = total results (fun (_, _, _, x, _) -> x) in
  let samples = Array.fold_left (fun a (_, _, _, _, xs) -> xs @ a) [] results in
  let hits, moves = Service.Router.affinity router in
  let items_per_round = List.fold_left (fun a (_, items) -> a + List.length items) 0 batches in
  let items = clients * rounds * items_per_round in
  Printf.printf
    "  %d batch items: %d ok, %d wrong, %d failed; %d retries, affinity %d/%d, %d failovers\n%!"
    items ok wrong failed retries hits (hits + moves)
    (Service.Router.failovers router);
  report_latency samples;
  check (workers = 2) "fleet ran %d workers, expected 2" workers;
  check (Array.length results = 4) "fleet ran %d clients, expected 4" (Array.length results);
  check (wrong = 0) "%d fleet batch items differ from the offline pipeline" wrong;
  check (ok + failed = items) "fleet outcomes %d ok + %d failed <> %d items" ok failed items;
  check (hits >= 1) "no repeat hit its owning worker (affinity hits %d)" hits;
  check (moves = 0) "%d repeats moved off their owning worker" moves;
  Printf.printf "  every successful batch item byte-identical to the offline pipeline\n%!"

(* ---------- diagnosis study --------------------------------------- *)

(* Tests-to-unique-diagnosis under the three fault orders the paper
   compares: per ATPG order, build the full-response dictionary over
   its generated tests and compare the generation order against the
   greedy diagnostic reordering.  The diagnostic order must never lose
   to the generation order, and must strictly win on orig. *)

let run_diagnosis () =
  let name = "syn208" in
  let c = Suite.build_by_name name in
  let setup = Pipeline.prepare !bench_cfg c in
  let faults = Fault_list.count setup.Pipeline.faults in
  Printf.printf "Diagnosis study (%s, %d collapsed faults):\n%!" name faults;
  check (faults >= 1) "%s has no collapsed faults" name;
  let orders = [ Ordering.Orig; Ordering.Dynm; Ordering.Dynm0 ] in
  List.iter
    (fun ord ->
      let r = Pipeline.run_order setup ord in
      let tests = r.Pipeline.engine.Engine.tests in
      let dict, build_s =
        time (fun () -> Diagnosis.Dictionary.build ~jobs:(jobs ()) setup.Pipeline.faults tests)
      in
      let nt = Diagnosis.Dictionary.test_count dict in
      let classes = Diagnosis.Dictionary.resolution dict in
      let mean_gen = Diagnosis.Select.mean_tests_to_unique dict (Array.init nt Fun.id) in
      let mean_diag = Diagnosis.Select.mean_tests_to_unique dict (Diagnosis.Select.order dict) in
      let o = Ordering.to_string ord in
      Printf.printf
        "  %-5s %4d tests, %4d classes, build %.3f s; mean tests-to-unique: \
         generation %.2f, diagnostic %.2f\n%!"
        o nt classes build_s mean_gen mean_diag;
      check (nt >= 1 && classes >= 1) "%s: %d tests, %d classes" o nt classes;
      check (mean_diag <= mean_gen +. 1e-9)
        "%s: diagnostic order (%.4f) lost to the generation order (%.4f)" o mean_diag mean_gen;
      if ord = Ordering.Orig then
        check (mean_diag < mean_gen)
          "orig: diagnostic order (%.4f) does not beat the generation order (%.4f)" mean_diag
          mean_gen)
    orders;
  Printf.printf "  diagnostic order never lost to the generation order\n%!"

(* ---------- scaling study ----------------------------------------- *)

(* Throughput at scale: a generated circuit far past the suite sizes
   (>= 10^5 gates; --gen overrides the spec), a spread fault sample,
   and non-dropping detection_sets runs at jobs 1 and --jobs — each
   word-identical to the engine's width-1 event path — followed by a
   time-budgeted ATPG burst.  The grid needs --jobs >= 2 for its 2
   points. *)

let run_scaling () =
  let spec = Generate.spec_of_string !scaling_gen in
  let c, build_s = time (fun () -> Generate.build spec) in
  let digest = Generate.digest c in
  let gates = Circuit.gate_count c in
  Printf.printf
    "Scaling study (%s):\n\
    \  %d gates, %d inputs, %d outputs, depth %d (built in %.2f s)\n\
    \  digest %s\n%!"
    (Generate.spec_to_string spec) gates
    (Array.length (Circuit.inputs c))
    (Array.length (Circuit.outputs c))
    (Circuit.depth c) build_s digest;
  check
    (String.length digest = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) digest)
    "digest %S is not 32 hex digits" digest;
  check (gates >= 100_000) "%d gates, below the 10^5 floor" gates;
  (* An evenly spread fault sample keeps the grid tractable at
     10^5..10^6 gates while still spanning the whole netlist. *)
  let full_fl = Fault_list.full c in
  let nfull = Fault_list.count full_fl in
  let nsample = min 1000 nfull in
  check (nsample >= 1) "no faults to sample";
  let fl = Fault_list.sub full_fl (Array.init nsample (fun i -> i * (nfull / nsample))) in
  let rng = Util.Rng.create (seed ()) in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:1024 in
  Printf.printf "  %d sampled faults (of %d), %d patterns\n%!" nsample nfull (Patterns.count pats);
  let reference, t_ref = time (fun () -> event_reference fl pats) in
  Printf.printf "  event detect_block w=1       %8.3f s (reference)\n%!" t_ref;
  let points = ref 0 in
  List.iter
    (fun j ->
      let w = Faultsim.superblock_width ~jobs:j (Patterns.blocks pats) in
      let sets, t = time (fun () -> Faultsim.detection_sets ~jobs:j fl pats) in
      Printf.printf "  detection_sets  jobs=%d w=%d   %8.3f s\n%!" j w t;
      check
        (Array.for_all2 Util.Bitvec.equal reference sets)
        "grid point jobs=%d differs from the event/width-1 reference" j;
      incr points)
    (List.sort_uniq compare [ 1; jobs () ]);
  check (!points >= 2) "grid has %d points, needs 2 (run with --jobs >= 2)" !points;
  (* ATPG burst under a whole-run wall-clock budget: how far the
     engine gets on the sampled universe in a fixed slice. *)
  let budget_s = 5.0 in
  let config =
    { (Run_config.engine_config !bench_cfg) with Engine.time_budget_s = Some budget_s }
  in
  let r, t_atpg = time (fun () -> Engine.run ~config fl ~order:(Array.init nsample Fun.id)) in
  let ntests = Patterns.count r.Engine.tests in
  let detected = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 r.Engine.detected_by in
  Printf.printf "  atpg  budget=%.0fs: %d tests, %d/%d detected in %.3f s%s\n%!" budget_s ntests
    detected nsample t_atpg
    (if r.Engine.interrupted then " (budget expired)" else "")

(* ---------- fault-simulation kernels and the ATPG phase ------------ *)

(* Wall-time the non-dropping simulation of a sizeable pattern set on
   syn1196: the engine's width-1 event path as the reference,
   detection_sets at one and at [--jobs] lanes (the width each derives
   is printed) and the dominance-reduced universe, all word-identical;
   then one ATPG run on the prepared setup.  The one- and [--jobs]-lane
   runs alternate over [reps] pairs and the floors compare medians, so
   a neighbour that holds a core for a while slows both sides. *)

let run_kernels () =
  let name = "syn1196" in
  let jobs = jobs () in
  let c = Suite.build_by_name name in
  let collapse = Collapse.equivalence (Fault_list.full c) in
  let fl = collapse.Collapse.representatives in
  let rng = Util.Rng.create (seed ()) in
  let pats = Patterns.random rng ~n_inputs:(Array.length (Circuit.inputs c)) ~count:4096 in
  let st = collapse.Collapse.stages in
  Printf.printf "Parallel fault-simulation kernels (%s, %d faults, %d patterns):\n%!" name
    (Fault_list.count fl) (Patterns.count pats);
  Printf.printf "  collapse: %d full -> %d classes -> %d prime (dominance), %d probe sites\n%!"
    st.Collapse.full st.Collapse.equivalence st.Collapse.prime st.Collapse.probes;
  check
    (st.Collapse.full >= st.Collapse.equivalence && st.Collapse.equivalence >= st.Collapse.prime)
    "collapse funnel not monotone: %d full, %d classes, %d prime" st.Collapse.full
    st.Collapse.equivalence st.Collapse.prime;
  check (st.Collapse.equivalence >= st.Collapse.probes) "%d probe sites exceed %d classes"
    st.Collapse.probes st.Collapse.equivalence;
  check
    (Collapse.dominance_ratio collapse >= Collapse.collapse_ratio collapse)
    "dominance ratio %.3f below equivalence ratio %.3f"
    (Collapse.dominance_ratio collapse)
    (Collapse.collapse_ratio collapse);
  let reference, t_ref = time (fun () -> event_reference fl pats) in
  Printf.printf "  event detect_block w1          %8.3f s (reference)\n%!" t_ref;
  let blocks = Patterns.blocks pats in
  let run j =
    let sets, t = time (fun () -> Faultsim.detection_sets ~jobs:j fl pats) in
    check (Array.for_all2 Util.Bitvec.equal reference sets)
      "detection_sets jobs=%d differs from the event reference" j;
    t
  in
  let reps = 5 in
  let pairs = List.init reps (fun _ -> (run 1, run jobs)) in
  let t_one = median (List.map fst pairs) and t_pooled = median (List.map snd pairs) in
  List.iter
    (fun (j, t) ->
      Printf.printf "  detection_sets  jobs=%d w%d      %8.3f s (median of %d)\n%!" j
        (Faultsim.superblock_width ~jobs:j blocks) t reps)
    [ (1, t_one); (jobs, t_pooled) ];
  (* The dominance row times the target-list reduction: the prime
     (dominance-surviving) universe. *)
  let _, t_dom = time (fun () -> Faultsim.detection_sets collapse.Collapse.prime pats) in
  Printf.printf "  detection_sets  dominance      %8.3f s\n%!" t_dom;
  let speedup = t_one /. t_pooled in
  let wide = if t_one > 0.0 then t_ref /. t_one else 0.0 in
  Printf.printf
    "  all agree word-for-word; speedup (jobs=%d vs jobs=1): %.2fx, (jobs=1 vs event w1): \
     %.2fx\n%!"
    jobs speedup wide;
  floor_check ~enforced:(jobs > 1 && cores >= 2) (speedup >= 1.1)
    "pooled detection_sets speedup %.2fx below the 1.1x floor" speedup;
  floor_check ~enforced:(cores >= 2) (wide >= 2.83)
    "detection_sets speedup over the event reference %.2fx below the 2.83x floor" wide;
  (* ATPG phase: the engine on the prepared setup. *)
  let cfg = !bench_cfg in
  let setup = Pipeline.prepare cfg c in
  Printf.printf "ATPG phase (%s, order %s):\n%!" name (Ordering.to_string cfg.Run_config.order);
  let r, t_atpg =
    time (fun () -> Pipeline.run_order setup cfg.Run_config.order)
  in
  let e = r.Pipeline.engine in
  let ntests = Patterns.count e.Engine.tests in
  let detected = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 e.Engine.detected_by in
  Printf.printf "  atpg  %8.3f s: %d tests, %d/%d detected\n%!" t_atpg ntests detected
    (Array.length e.Engine.detected_by);
  check (ntests >= 1 && detected >= 1) "atpg produced %d tests detecting %d faults" ntests detected;
  (* Under --metrics the phase spans must have been recorded. *)
  if cfg.Run_config.metrics then begin
    let prefix = Util.Metrics.span_prefix in
    let spans =
      List.filter
        (fun h -> String.starts_with ~prefix (Util.Metrics.histogram_name h))
        (Util.Metrics.histograms (Util.Trace.metrics (Util.Trace.current ())))
    in
    check (spans <> []) "--metrics recorded no %s histogram" prefix
  end

(* ---------- suite recipe ------------------------------------------ *)

(* The embedded suite is the recipe's output: regenerate all fourteen
   circuits and compare each with its embedded netlist, byte for byte
   and by structural digest.  Takes about 4 minutes, most of it
   redundancy removal on syn1196, syn13207 and syn5378. *)

let run_suite () =
  Printf.printf "Suite recipe (%d circuits):\n%!" (List.length Suite.entries);
  List.iter
    (fun (e : Suite.entry) ->
      let name = e.Suite.name in
      let fresh, t = time (fun () -> Suite.regenerate e) in
      Printf.printf "  %-8s %5d gates, regenerated in %7.2f s\n%!" name (Circuit.gate_count fresh)
        t;
      check (Bench_format.to_string fresh = Suite.netlist e)
        "%s: regenerated netlist differs from the embedded text" name;
      check
        (Generate.digest fresh = Generate.digest (Suite.build e))
        "%s: regenerated digest differs from the embedded circuit's" name)
    Suite.entries;
  Printf.printf "  every circuit byte-identical to its embedded netlist\n%!"

(* ---------- driver ------------------------------------------------- *)

let stages =
  [ ("kernels", run_kernels); ("diagnosis", run_diagnosis); ("scaling", run_scaling);
    ("soak", run_soak); ("fleet", run_fleet); ("suite", run_suite) ]

let usage () =
  prerr_endline
    "usage: main.exe [--seed N] [--jobs N] [--metrics] [--trace FILE] [--gen SPEC] STAGE ...";
  Printf.eprintf "stages: %s\n" (String.concat ", " (List.map fst stages));
  exit 2

let parse_args () =
  let specs =
    Run_flags.pipeline_specs @ Run_flags.engine_specs @ Run_flags.observability_specs
  in
  let cfg, rest = Run_flags.parse ~specs ~init:!bench_cfg (List.tl (Array.to_list Sys.argv)) in
  bench_cfg := cfg;
  let rec go acc = function
    | [] -> List.rev acc
    | "--gen" :: spec :: rest ->
        scaling_gen := spec;
        go acc rest
    | w :: rest -> (
        match List.assoc_opt w stages with Some run -> go ((w, run) :: acc) rest | None -> usage ())
  in
  match go [] rest with [] -> usage () | chosen -> chosen

let () =
  match
    let chosen = parse_args () in
    Printf.printf "bench: nproc %d, OCaml %s, jobs %d, seed %d\n%!" cores Sys.ocaml_version
      (jobs ()) (seed ());
    Harness.with_observability !bench_cfg (fun () ->
        List.iter
          (fun (name, run) ->
            (try run ()
             with Check_failed msg -> raise (Check_failed (name ^ " check failed: " ^ msg)));
            Printf.printf "%s: all checks passed\n%!" name)
          chosen)
  with
  | (), report -> Option.iter print_string report
  | exception Check_failed msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1
  | exception Util.Diagnostics.Failed d ->
      prerr_endline (Util.Diagnostics.to_string d);
      exit 2
