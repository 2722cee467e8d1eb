(* Chaos and resilience suite.

   Proves the robustness story end to end: the failpoint grammar and
   its seeded draws, deterministic retry/backoff, crash-safety of
   every durable write (forked children are killed at injected sites
   and the survivor must see old-or-new, never torn), corrupt data
   detected by digests instead of deserialised, the resilient client
   riding through an actively faulty server with byte-identical
   results, admission-control shedding, and accept-lane supervision.

   Failpoint state is process-global, so every test disarms in a
   [Fun.protect] finaliser. *)

let check = Alcotest.check

module F = Util.Failpoint
module D = Util.Diagnostics
module Retry = Util.Retry
module Json = Util.Json

let configure ?seed spec =
  match F.configure ?seed spec with
  | Ok () -> ()
  | Stdlib.Error msg -> Alcotest.fail msg

let with_failpoints ?seed spec f =
  configure ?seed spec;
  Fun.protect ~finally:F.clear f

let with_temp_file f =
  let path = Filename.temp_file "adi-chaos" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "adi-chaos" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- failpoint grammar -------------------------------------------- *)

let failpoint_rejects_malformed () =
  let bad spec =
    match F.configure spec with
    | Stdlib.Error _ -> ()
    | Ok () ->
        F.clear ();
        Alcotest.fail (Printf.sprintf "accepted malformed spec %S" spec)
  in
  bad "noaction";
  bad "site:explode";
  bad "site:error@0";
  bad "site:error@1.5";
  bad "site:error@nan";
  bad "site:delay=xyz";
  bad ":error";
  check Alcotest.bool "bad spec leaves chaos off" false (F.active ())

let failpoint_fires_and_counts () =
  with_failpoints "s.x:error" @@ fun () ->
  check Alcotest.bool "active" true (F.active ());
  (match F.check "s.x" with
  | exception D.Failed d -> check Alcotest.bool "typed E-io" true (d.D.code = D.Io_error)
  | () -> Alcotest.fail "armed error did not fire");
  F.check "other.site";
  check Alcotest.int "other site untouched" 0 (F.triggered "other.site");
  check Alcotest.bool "fires consumes a draw" true (F.fires "s.x");
  check Alcotest.int "both draws counted" 2 (F.triggered "s.x")

let failpoint_clear_disarms () =
  configure "s.x:error";
  F.clear ();
  check Alcotest.bool "inactive" false (F.active ());
  F.check "s.x";
  check Alcotest.bool "fires is false" false (F.fires "s.x")

let failpoint_seeded_draws_reproduce () =
  Fun.protect ~finally:F.clear @@ fun () ->
  let count () =
    configure ~seed:7 "p:error@0.3";
    let n = ref 0 in
    for _ = 1 to 200 do
      if F.fires "p" then incr n
    done;
    !n
  in
  let a = count () in
  let b = count () in
  check Alcotest.int "same seed, same firing pattern" a b;
  check Alcotest.bool "probability is actually partial" true (a > 0 && a < 200)

let failpoint_delay_units () =
  Fun.protect ~finally:F.clear @@ fun () ->
  List.iter
    (fun spec ->
      configure spec;
      F.check "d";
      check Alcotest.int (spec ^ " fired") 1 (F.triggered "d"))
    [ "d:delay=5ms"; "d:delay=0.001s"; "d:delay=0" ]

let failpoint_corrupt_flips_one_byte () =
  with_failpoints "c:corrupt" @@ fun () ->
  let s = "hello, failpoints: a reasonably long payload" in
  let s' = F.corrupt "c" s in
  check Alcotest.bool "changed" true (s' <> s);
  check Alcotest.int "same length" (String.length s) (String.length s');
  let diffs = ref 0 in
  String.iteri (fun i ch -> if ch <> s'.[i] then incr diffs) s;
  check Alcotest.int "exactly one byte flipped" 1 !diffs;
  F.clear ();
  check Alcotest.bool "identity when disarmed" true (String.equal s (F.corrupt "c" s))

let failpoint_env_rejects_malformed () =
  Unix.putenv "ADI_FAILPOINTS" "bogus";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "ADI_FAILPOINTS" "";
      F.clear ())
    (fun () ->
      match F.install_from_env () with
      | exception D.Failed d ->
          check Alcotest.bool "typed E-flag" true (d.D.code = D.Invalid_flag)
      | () -> Alcotest.fail "malformed ADI_FAILPOINTS accepted")

(* --- retry policy ------------------------------------------------- *)

let retry_deterministic_backoff () =
  let now = ref 0.0 in
  let slept = ref [] in
  let clock () = !now in
  let sleep d =
    slept := d :: !slept;
    now := !now +. d
  in
  let p =
    { Retry.default with
      max_attempts = 3;
      base_delay_s = 0.05;
      multiplier = 2.0;
      jitter = false }
  in
  let calls = ref 0 in
  let v =
    Retry.run ~clock ~sleep p
      ~retryable:(fun _ -> true)
      (fun ~attempt ~budget:_ ->
        incr calls;
        check Alcotest.int "attempts are 1-based and sequential" !calls attempt;
        if attempt < 3 then failwith "boom" else 42)
  in
  check Alcotest.int "value of the succeeding attempt" 42 v;
  check
    Alcotest.(list (float 1e-9))
    "exponential, jitter-free delays" [ 0.05; 0.1 ] (List.rev !slept)

let retry_full_jitter_is_bounded_and_seeded () =
  let p = { Retry.default with jitter = true; base_delay_s = 0.1; multiplier = 2.0 } in
  let draws rng_seed =
    let rng = Util.Rng.create rng_seed in
    List.map (fun attempt -> Retry.backoff_s p rng ~attempt) [ 1; 2; 3; 4 ]
  in
  let a = draws 5 in
  List.iteri
    (fun i d ->
      let bound = min p.Retry.max_delay_s (0.1 *. (2.0 ** float_of_int i)) in
      check Alcotest.bool "within [0, bound)" true (d >= 0.0 && d < bound))
    a;
  check Alcotest.(list (float 1e-12)) "seeded draws reproduce" a (draws 5)

let retry_respects_predicate () =
  let calls = ref 0 in
  (match
     Retry.run
       { Retry.default with max_attempts = 5 }
       ~retryable:(fun _ -> false)
       (fun ~attempt:_ ~budget:_ ->
         incr calls;
         failwith "fatal")
   with
  | _ -> Alcotest.fail "non-retryable exception was swallowed"
  | exception Failure _ -> ());
  check Alcotest.int "single attempt" 1 !calls

let retry_honours_overall_budget () =
  let now = ref 0.0 in
  let clock () = !now in
  let sleep d = now := !now +. d in
  let p =
    { Retry.default with
      max_attempts = 100;
      base_delay_s = 1.0;
      multiplier = 2.0;
      jitter = false;
      overall_budget_s = Some 2.5 }
  in
  let calls = ref 0 in
  (match
     Retry.run ~clock ~sleep p
       ~retryable:(fun _ -> true)
       (fun ~attempt:_ ~budget:_ ->
         incr calls;
         failwith "always")
   with
  | _ -> Alcotest.fail "should have exhausted"
  | exception Failure _ -> ());
  check Alcotest.bool "deadline beat the attempt count" true (!calls < 100);
  check Alcotest.bool "made some attempts" true (!calls >= 2)

let retry_reports_each_retry () =
  let seen = ref [] in
  let on_retry ~attempt ~delay_s:_ _exn = seen := attempt :: !seen in
  (match
     Retry.run
       ~sleep:(fun _ -> ())
       ~on_retry
       { Retry.default with max_attempts = 3; jitter = false }
       ~retryable:(fun _ -> true)
       (fun ~attempt:_ ~budget:_ -> failwith "always")
   with
  | _ -> Alcotest.fail "should raise"
  | exception Failure _ -> ());
  check Alcotest.(list int) "one callback per retry" [ 1; 2 ] (List.rev !seen)

(* --- crash-safety: forked children killed at injected sites ------- *)

(* Run [f] in a forked child with [spec] armed; return the child's
   exit status.  The child leaves through [Unix._exit] on every path,
   so the parent's runtime state is never touched. *)
let crash_child ~spec f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (match F.configure spec with
      | Ok () -> ()
      | Stdlib.Error _ -> Unix._exit 99);
      (try f () with _ -> Unix._exit 98);
      Unix._exit 97
  | pid ->
      let _, status = Unix.waitpid [] pid in
      status

let crash_sites = [ "atomic.tmp_written"; "atomic.synced"; "atomic.renamed" ]

let atomic_file_crash_qcheck =
  QCheck.Test.make ~count:8 ~name:"atomic_file.crash_at_every_step_old_or_new"
    QCheck.(pair printable_string printable_string)
    (fun (old_c, new_c) ->
      List.for_all
        (fun site ->
          with_temp_file @@ fun path ->
          Util.Atomic_file.write path (fun oc -> output_string oc old_c);
          let status =
            crash_child ~spec:(site ^ ":crash") (fun () ->
                Util.Atomic_file.write path (fun oc -> output_string oc new_c))
          in
          status = Unix.WEXITED F.crash_exit_code
          &&
          let got = read_file path in
          String.equal got old_c || String.equal got new_c)
        crash_sites)

(* The same old-or-new-never-torn discipline, one layer up: a process
   killed while spilling an evicted cache entry must leave a spill
   directory a fresh store can read without error — either the entry
   reloads intact or it is a clean miss. *)
let store_setup =
  lazy
    (let c = Library.c17 () in
     (c, Run_config.default, Pipeline.prepare Run_config.default c))

let store_spill_crash_qcheck =
  QCheck.Test.make ~count:4 ~name:"store.spill_crash_reload_or_miss"
    (QCheck.oneofl ("store.spill" :: crash_sites))
    (fun site ->
      let c, cfg, setup = Lazy.force store_setup in
      let key = Service.Store.key_of c cfg in
      with_temp_dir @@ fun dir ->
      let status =
        crash_child ~spec:(site ^ ":crash") (fun () ->
            let store = Service.Store.create ~capacity:1 ~spill_dir:dir () in
            Service.Store.add store key setup;
            (* this insertion evicts and spills [key] — crash there *)
            Service.Store.add store "other-key" setup)
      in
      status = Unix.WEXITED F.crash_exit_code
      &&
      let store = Service.Store.create ~capacity:1 ~spill_dir:dir () in
      match Service.Store.find store key with
      | None -> true (* lost spill is a miss, never an error *)
      | Some back -> back.Pipeline.adi = setup.Pipeline.adi)

let corrupt_spill_is_a_clean_miss () =
  let c, cfg, setup = Lazy.force store_setup in
  let key = Service.Store.key_of c cfg in
  with_temp_dir @@ fun dir ->
  with_failpoints "store.spill:corrupt" @@ fun () ->
  let store = Service.Store.create ~capacity:1 ~spill_dir:dir () in
  Service.Store.add store key setup;
  Service.Store.add store "other-key" setup;
  check Alcotest.bool "corruption fired" true (F.triggered "store.spill" >= 1);
  F.clear ();
  let fresh = Service.Store.create ~capacity:1 ~spill_dir:dir () in
  check Alcotest.bool "digest mismatch becomes a miss" true
    (Service.Store.find fresh key = None)

(* --- checkpoint crash and recovery -------------------------------- *)

let c17_checkpoint ~seed =
  let c = Library.c17 () in
  let fl = Collapse.collapsed c in
  let order = Array.init (Fault_list.count fl) Fun.id in
  let polls = ref 0 in
  let r =
    Engine.run fl ~order
      ~should_stop:(fun () ->
        incr polls;
        !polls > 2)
  in
  ( c,
    {
      Checkpoint.circuit_title = "c17";
      circuit_digest = Checkpoint.digest_of_circuit c;
      seed;
      order_kind = "0dynm";
      backtrack_limit = 256;
      retries = 1;
      order;
      snapshot = Option.get r.Engine.snapshot;
    } )

let checkpoint_kill9_old_or_new () =
  let _, old_ck = c17_checkpoint ~seed:1 in
  let _, new_ck = c17_checkpoint ~seed:2 in
  List.iter
    (fun site ->
      with_temp_file @@ fun path ->
      Checkpoint.save path old_ck;
      let status =
        crash_child ~spec:(site ^ ":crash") (fun () -> Checkpoint.save path new_ck)
      in
      check Alcotest.bool (site ^ ": child killed by injection") true
        (status = Unix.WEXITED F.crash_exit_code);
      (* the survivor must load cleanly and be one of the two states *)
      let back = Checkpoint.load path in
      check Alcotest.bool
        (site ^ ": old or new, never torn")
        true
        (back.Checkpoint.seed = old_ck.Checkpoint.seed
        || back.Checkpoint.seed = new_ck.Checkpoint.seed))
    ("checkpoint.save" :: crash_sites)

let corrupt_checkpoint_is_typed () =
  let _, ck = c17_checkpoint ~seed:1 in
  with_temp_file @@ fun path ->
  Checkpoint.save path ck;
  let full = read_file path in
  let oc = open_out_bin path in
  (* flip a byte deep inside the marshalled payload *)
  let b = Bytes.of_string full in
  let i = String.length full - 5 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
  output_bytes oc b;
  close_out oc;
  match Checkpoint.load path with
  | exception D.Failed d ->
      check Alcotest.bool "digest mismatch is E-checkpoint-format" true
        (d.D.code = D.Checkpoint_format)
  | _ -> Alcotest.fail "corrupt payload deserialised"

(* --- harness resume: lenient by default, strict on demand --------- *)

let garbage_checkpoint path =
  let oc = open_out_bin path in
  output_string oc "ADI-ATPG-CKPT v4\nnot-a-digest\ngarbage payload";
  close_out oc

let resume_lenient_starts_fresh () =
  let c = Library.c17 () in
  let full = Harness.run_atpg_cfg Run_config.default c in
  with_temp_file @@ fun path ->
  garbage_checkpoint path;
  let cfg =
    Run_config.(default |> with_checkpoint (Some path) |> with_resume true)
  in
  let r = Harness.run_atpg_cfg cfg c in
  check Alcotest.string "fresh run, byte-identical report" full.Harness.report
    r.Harness.report

let resume_strict_fails_typed () =
  let c = Library.c17 () in
  with_temp_file @@ fun path ->
  garbage_checkpoint path;
  let cfg =
    Run_config.(
      default
      |> with_checkpoint (Some path)
      |> with_resume true
      |> with_resume_strict true)
  in
  match Harness.run_atpg_cfg cfg c with
  | exception D.Failed d ->
      check Alcotest.bool "strict resume raises E-checkpoint-format" true
        (d.D.code = D.Checkpoint_format)
  | _ -> Alcotest.fail "--resume-strict accepted a corrupt checkpoint"

let resume_strict_requires_resume () =
  let cfg = Run_config.(default |> with_resume_strict true) in
  match Run_config.validate cfg with
  | exception D.Failed d -> check Alcotest.bool "E-flag" true (d.D.code = D.Invalid_flag)
  | () -> Alcotest.fail "--resume-strict without --resume validated"

(* --- wire-level fault detection ----------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let protocol_digest_detects_corruption () =
  with_socketpair @@ fun a b ->
  with_failpoints "protocol.write:corrupt" @@ fun () ->
  Service.Protocol.write_frame a {|{"id": 1, "op": "stats"}|};
  match Service.Protocol.read_frame b with
  | exception D.Failed d ->
      check Alcotest.bool "corruption surfaces as E-protocol" true (d.D.code = D.Protocol)
  | Some _ -> Alcotest.fail "corrupt frame delivered as data"
  | None -> Alcotest.fail "corrupt frame read as clean EOF"

let protocol_torn_write_is_typed () =
  with_socketpair @@ fun a b ->
  with_failpoints "protocol.torn:error" @@ fun () ->
  (match Service.Protocol.write_frame a "0123456789abcdef" with
  | exception D.Failed d ->
      check Alcotest.bool "torn write is typed E-io" true (d.D.code = D.Io_error)
  | () -> Alcotest.fail "torn write reported success");
  Unix.close a;
  (* the reader must see a failure or EOF, never a partial frame *)
  match Service.Protocol.read_frame b with
  | None -> ()
  | Some _ -> Alcotest.fail "partial frame delivered as data"
  | exception D.Failed _ -> ()

(* --- client vs a fault-injected server ---------------------------- *)

let strip_cached = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
  | j -> j

let with_server ?(workers = 2) ?max_inflight ?queue_wait_s f =
  let path = Filename.temp_file "adi-chaos" ".sock" in
  Sys.remove path;
  let address = Service.Server.Unix_socket path in
  let session = Service.Session.create ~capacity:4 ~jobs:1 () in
  let server =
    Service.Server.create ~workers ?max_inflight ?queue_wait_s
      (Service.Session.backend session) address
  in
  let ready = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Service.Server.serve server ~on_ready:(fun () -> Atomic.set ready true))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      Service.Server.request_stop server;
      Domain.join dom;
      F.clear ())
    (fun () -> f ~path ~address ~session ~server)

let resilient_policy =
  { Service.Client.default_policy with
    Util.Retry.max_attempts = 10;
    base_delay_s = 0.005;
    overall_budget_s = Some 60.0 }

let client_rides_through_chaos_byte_identical () =
  let params = [ ("circuit", Json.Str "c17") ] in
  let expected =
    let pristine = Service.Session.create ~capacity:4 ~jobs:1 () in
    match
      (Service.Session.handle pristine (Service.Protocol.single "adi" params))
        .Service.Protocol.payload
    with
    | Ok (Service.Protocol.Result j) -> Json.to_string (strip_cached j)
    | Ok _ -> Alcotest.fail "unexpected reply shape"
    | Error e -> Alcotest.fail e.Service.Protocol.message
  in
  with_server @@ fun ~path:_ ~address ~session:_ ~server:_ ->
  configure ~seed:3
    "protocol.write:error@0.15,protocol.write:corrupt@0.1,session.handle:delay=2ms@0.3";
  let client = Service.Client.create ~policy:resilient_policy address in
  Fun.protect
    ~finally:(fun () -> Service.Client.close client)
    (fun () ->
      for _ = 1 to 10 do
        match Service.Client.adi client params with
        | Ok j ->
            check Alcotest.string "byte-identical under chaos" expected
              (Json.to_string (strip_cached j))
        | Error d -> Alcotest.fail ("typed error under chaos: " ^ D.to_string d)
      done;
      F.clear ())

let client_deadline_is_typed () =
  with_server @@ fun ~path:_ ~address ~session:_ ~server:_ ->
  configure "session.handle:delay=500ms";
  let policy = { Service.Client.default_policy with Util.Retry.max_attempts = 1 } in
  let client = Service.Client.create ~policy address in
  Fun.protect
    ~finally:(fun () -> Service.Client.close client)
    (fun () ->
      (match Service.Client.stats client ~timeout_s:0.05 () with
      | Error d -> check Alcotest.bool "typed E-budget" true (d.D.code = D.Budget_expired)
      | Ok _ -> Alcotest.fail "deadline did not expire");
      F.clear ())

let admission_control_sheds_typed () =
  with_server ~workers:4 ~max_inflight:1 ~queue_wait_s:0.01
  @@ fun ~path:_ ~address ~session ~server:_ ->
  configure "session.handle:delay=300ms";
  let attempt () =
    let policy = { Service.Client.default_policy with Util.Retry.max_attempts = 1 } in
    let c = Service.Client.create ~policy address in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        match Service.Client.stats c ~timeout_s:10.0 () with
        | Ok _ -> `Ok
        | Error d when d.D.code = D.Overload -> `Shed
        | Error _ -> `Err)
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn attempt) in
  let rs = Array.map Domain.join doms in
  F.clear ();
  check Alcotest.bool "someone was admitted" true (Array.exists (( = ) `Ok) rs);
  check Alcotest.bool "someone was shed" true (Array.exists (( = ) `Shed) rs);
  check Alcotest.bool "session counted the sheds" true (Service.Session.shed_count session >= 1)

let overloaded_retrier_eventually_wins () =
  with_server ~workers:4 ~max_inflight:1 ~queue_wait_s:0.01
  @@ fun ~path:_ ~address ~session:_ ~server:_ ->
  configure "session.handle:delay=30ms";
  let attempt () =
    let c = Service.Client.create ~policy:resilient_policy address in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        Result.is_ok (Service.Client.stats c ()))
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn attempt) in
  let rs = Array.map Domain.join doms in
  F.clear ();
  check Alcotest.bool "every retrying client succeeded" true (Array.for_all Fun.id rs)

(* Regression: a lane dying inside the accept path must not wedge the
   server, leak the listener, or leave the socket file behind. *)
let lane_death_keeps_serving_and_cleans_up () =
  let captured = ref None in
  with_server ~workers:2 (fun ~path ~address ~session:_ ~server ->
      captured := Some (path, server);
      configure ~seed:5 "server.accept:error@0.5";
      let client = Service.Client.create ~policy:resilient_policy address in
      Fun.protect
        ~finally:(fun () -> Service.Client.close client)
        (fun () ->
          for _ = 1 to 6 do
            match Service.Client.stats client () with
            | Ok _ -> ()
            | Error d -> Alcotest.fail (D.to_string d)
          done);
      (* Idle lanes hit the accept failpoint once per poll interval, so
         with the fault still armed restarts accumulate at a steady
         rate; wait for one instead of racing the polling cadence. *)
      let deadline = Util.Budget.of_seconds 5.0 in
      while
        Service.Server.lane_restarts server < 1 && not (Util.Budget.expired deadline)
      do
        Unix.sleepf 0.01
      done;
      F.clear ());
  let path, server = Option.get !captured in
  check Alcotest.bool "socket file removed after drain" false (Sys.file_exists path);
  check Alcotest.bool "lanes were revived" true (Service.Server.lane_restarts server >= 1)

let health_reports_runtime () =
  with_server ~workers:2 @@ fun ~path:_ ~address ~session:_ ~server:_ ->
  let client = Service.Client.create address in
  Fun.protect
    ~finally:(fun () -> Service.Client.close client)
    (fun () ->
      match Service.Client.health client () with
      | Ok (Json.Obj fields) ->
          List.iter
            (fun k -> check Alcotest.bool ("health has " ^ k) true (List.mem_assoc k fields))
            [ "version"; "uptime_s"; "requests"; "errors"; "shed"; "entries";
              "capacity"; "jobs"; "inflight"; "max_inflight"; "workers";
              "lane_restarts" ];
          check Alcotest.bool "workers echoed" true
            (List.assoc "workers" fields = Json.Int 2)
      | Ok _ -> Alcotest.fail "health reply is not an object"
      | Error d -> Alcotest.fail (D.to_string d))

(* --- registration -------------------------------------------------- *)

let test name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "chaos"
    [
      ( "failpoint",
        [
          test "rejects malformed specs" failpoint_rejects_malformed;
          test "fires and counts" failpoint_fires_and_counts;
          test "clear disarms" failpoint_clear_disarms;
          test "seeded draws reproduce" failpoint_seeded_draws_reproduce;
          test "delay units" failpoint_delay_units;
          test "corrupt flips one byte" failpoint_corrupt_flips_one_byte;
          test "env rejects malformed" failpoint_env_rejects_malformed;
        ] );
      ( "retry",
        [
          test "deterministic backoff" retry_deterministic_backoff;
          test "full jitter bounded and seeded" retry_full_jitter_is_bounded_and_seeded;
          test "respects retryable predicate" retry_respects_predicate;
          test "honours overall budget" retry_honours_overall_budget;
          test "reports each retry" retry_reports_each_retry;
        ] );
      ( "crash-safety",
        [
          QCheck_alcotest.to_alcotest atomic_file_crash_qcheck;
          QCheck_alcotest.to_alcotest store_spill_crash_qcheck;
          test "corrupt spill is a clean miss" corrupt_spill_is_a_clean_miss;
          test "checkpoint kill -9 leaves old or new" checkpoint_kill9_old_or_new;
          test "corrupt checkpoint is typed" corrupt_checkpoint_is_typed;
        ] );
      ( "resume",
        [
          test "lenient resume starts fresh" resume_lenient_starts_fresh;
          test "strict resume fails typed" resume_strict_fails_typed;
          test "strict requires resume" resume_strict_requires_resume;
        ] );
      ( "wire",
        [
          test "digest detects corruption" protocol_digest_detects_corruption;
          test "torn write is typed" protocol_torn_write_is_typed;
        ] );
      ( "service",
        [
          test "client rides through chaos" client_rides_through_chaos_byte_identical;
          test "client deadline is typed" client_deadline_is_typed;
          test "admission control sheds" admission_control_sheds_typed;
          test "overloaded retrier wins" overloaded_retrier_eventually_wins;
          test "lane death: serve, drain, clean up" lane_death_keeps_serving_and_cleans_up;
          test "health reports runtime" health_reports_runtime;
        ] );
    ]
