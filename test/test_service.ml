(* Tests for the service layer: content-addressed store semantics
   (key stability, LRU order, capacity-zero, disk spill), the
   length-prefixed frame protocol, session error taxonomy, the
   cache-cannot-change-a-reply byte-identity invariant (cold vs warm,
   jobs=1 vs jobs=4, service vs offline pipeline), and an end-to-end
   concurrent-server exercise over a Unix-domain socket. *)

module Json = Util.Json
module D = Util.Diagnostics
module Store = Service.Store
module Protocol = Service.Protocol
module Session = Service.Session
module Server = Service.Server

let check = Alcotest.check

let small_cfg seed =
  Run_config.(default |> with_seed seed |> with_pool 64 |> with_target_coverage 0.5)

let c17 () = Suite.build_by_name "c17"

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adi-store-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* ---------- store keying ------------------------------------------ *)

let key_stable_across_field_order () =
  let c = c17 () in
  let cfg1 = Run_config.(default |> with_seed 7 |> with_pool 300 |> with_target_coverage 0.8) in
  let cfg2 = Run_config.(default |> with_target_coverage 0.8 |> with_pool 300 |> with_seed 7) in
  check Alcotest.string "builder order is irrelevant" (Store.key_of c cfg1) (Store.key_of c cfg2);
  (* Knobs that cannot change the prepared artifacts are excluded. *)
  let cfg3 =
    Run_config.(cfg1 |> with_jobs 4 |> with_backtrack_limit 99 |> with_retries 3 |> with_metrics true)
  in
  check Alcotest.string "jobs/engine/observability excluded" (Store.key_of c cfg1)
    (Store.key_of c cfg3);
  (* Anything that does change them must change the key. *)
  let differs cfg = Store.key_of c cfg1 <> Store.key_of c cfg in
  Alcotest.(check bool) "seed is part of the key" true (differs Run_config.(cfg1 |> with_seed 8));
  Alcotest.(check bool) "pool is part of the key" true (differs Run_config.(cfg1 |> with_pool 301));
  let other = Suite.build_by_name "lion" in
  Alcotest.(check bool) "circuit is part of the key" true
    (Store.key_of c cfg1 <> Store.key_of other cfg1)

(* ---------- LRU behaviour ----------------------------------------- *)

let lru_eviction_order () =
  let setup = Pipeline.prepare (small_cfg 1) (c17 ()) in
  let s = Store.create ~capacity:2 () in
  Store.add s "a" setup;
  Store.add s "b" setup;
  Store.add s "c" setup;
  check (Alcotest.list Alcotest.string) "oldest evicted first" [ "c"; "b" ] (Store.keys s);
  Alcotest.(check bool) "evicted key misses" true (Store.find s "a" = None);
  (* A lookup refreshes recency, changing the next victim. *)
  ignore (Store.find s "b");
  Store.add s "d" setup;
  check (Alcotest.list Alcotest.string) "refreshed entry survives" [ "d"; "b" ] (Store.keys s);
  let st = Store.stats s in
  check Alcotest.int "two evictions" 2 st.Store.evictions;
  (* Re-adding a resident key keeps one entry. *)
  Store.add s "d" setup;
  check Alcotest.int "no duplicate entries" 2 (Store.length s)

let capacity_zero_disables () =
  let circuit = c17 () in
  let setup = Pipeline.prepare (small_cfg 1) circuit in
  let s = Store.create ~capacity:0 () in
  Store.add s "a" setup;
  check Alcotest.int "nothing retained" 0 (Store.length s);
  Alcotest.(check bool) "find misses" true (Store.find s "a" = None);
  let _, cached1 = Store.find_or_prepare s (small_cfg 1) circuit in
  let _, cached2 = Store.find_or_prepare s (small_cfg 1) circuit in
  Alcotest.(check bool) "never served from cache" false (cached1 || cached2);
  let st = Store.stats s in
  check Alcotest.int "all lookups miss" 3 st.Store.misses;
  check Alcotest.int "no insertions" 0 st.Store.insertions

let spill_round_trip () =
  with_temp_dir @@ fun dir ->
  let circuit = c17 () in
  let s = Store.create ~capacity:1 ~spill_dir:dir () in
  let setup1, _ = Store.find_or_prepare s (small_cfg 1) circuit in
  let key1 = Store.key_of circuit (small_cfg 1) in
  let _ = Store.find_or_prepare s (small_cfg 2) circuit in
  (* key1 was evicted to disk; it must come back identical. *)
  check Alcotest.int "only one resident" 1 (Store.length s);
  (match Store.find s key1 with
  | None -> Alcotest.fail "spilled entry not found"
  | Some setup ->
      Alcotest.(check bool) "spill round-trips the setup" true
        (Marshal.to_string setup [] = Marshal.to_string setup1 []));
  let st = Store.stats s in
  check Alcotest.int "served by the spill" 1 st.Store.spill_hits;
  (* A corrupt spill file is a miss, not a crash. *)
  let key2 = Store.key_of circuit (small_cfg 2) in
  let _ = Store.find_or_prepare s (small_cfg 3) circuit in
  let path = Filename.concat dir (key2 ^ ".setup") in
  Alcotest.(check bool) "eviction spilled to disk" true (Sys.file_exists path);
  let oc = open_out_bin path in
  output_string oc "not a setup";
  close_out oc;
  Alcotest.(check bool) "corrupt spill is a miss" true (Store.find s key2 = None);
  (* clear sweeps the spill files too. *)
  ignore (Store.clear s);
  Alcotest.(check bool) "clear removes spill files" true
    (Array.for_all (fun f -> not (Filename.check_suffix f ".setup")) (Sys.readdir dir))

(* ---------- framing ----------------------------------------------- *)

let frame_round_trip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Protocol.write_frame a "hello";
  Protocol.write_frame a "";
  Protocol.write_frame a (String.make 100_000 'x');
  Unix.close a;
  check (Alcotest.option Alcotest.string) "payload" (Some "hello") (Protocol.read_frame b);
  check (Alcotest.option Alcotest.string) "empty frame" (Some "") (Protocol.read_frame b);
  (match Protocol.read_frame b with
  | Some big -> check Alcotest.int "large frame survives" 100_000 (String.length big)
  | None -> Alcotest.fail "large frame lost");
  check (Alcotest.option Alcotest.string) "clean EOF between frames" None (Protocol.read_frame b);
  Unix.close b

let expect_protocol_error f =
  match f () with
  | _ -> Alcotest.fail "expected an E-protocol failure"
  | exception D.Failed d ->
      check Alcotest.string "typed protocol error" "E-protocol" (D.code_string d.D.code)

let frame_truncation_and_bounds () =
  (* Header promising more bytes than ever arrive. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 10l;
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write_substring a "abc" 0 3);
  Unix.close a;
  expect_protocol_error (fun () -> Protocol.read_frame b);
  Unix.close b;
  (* Header outside the frame bound. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Protocol.max_frame_bytes + 1));
  ignore (Unix.write a hdr 0 4);
  Unix.close a;
  expect_protocol_error (fun () -> Protocol.read_frame b);
  Unix.close b;
  (* Oversized writes are refused before touching the socket. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  expect_protocol_error (fun () ->
      Protocol.write_frame a (String.make (Protocol.max_frame_bytes + 1) 'x'));
  Unix.close a;
  Unix.close b

let request_json_round_trip () =
  let req = Protocol.single ~id:42 "order" [ ("seed", Json.Int 3) ] in
  (match Json.of_string (Json.to_string (Protocol.request_to_json req)) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Protocol.request_of_json json with
      | Ok r -> (
          check Alcotest.int "id" 42 r.Protocol.id;
          match r.Protocol.call with
          | Protocol.Single (op, params) ->
              check Alcotest.string "op" "order" (Protocol.op_name op);
              Alcotest.(check bool) "params" true (params = [ ("seed", Json.Int 3) ])
          | _ -> Alcotest.fail "expected a single call")
      | Error (Protocol.Malformed e) -> Alcotest.fail e
      | Error (Protocol.Unknown_op { op; _ }) -> Alcotest.fail ("unknown op " ^ op)));
  let resp =
    { Protocol.id = 42; payload = Error { Protocol.code = "E-budget"; message = "late" } }
  in
  match
    Result.bind (Json.of_string (Json.to_string (Protocol.response_to_json resp)))
      Protocol.response_of_json
  with
  | Ok { Protocol.payload = Error e; id } ->
      check Alcotest.int "response id" 42 id;
      check Alcotest.string "error code" "E-budget" e.Protocol.code;
      check Alcotest.string "error message" "late" e.Protocol.message
  | Ok _ -> Alcotest.fail "lost the error payload"
  | Error e -> Alcotest.fail e

(* ---------- session error taxonomy -------------------------------- *)

(* One frame through the session's server backend, as a lane serves it. *)
let handle_frame t payload = (Session.backend t).Server.handle payload

let error_code resp =
  match resp.Protocol.payload with
  | Error e -> e.Protocol.code
  | Ok _ -> Alcotest.fail "expected an error reply"

let session_error_taxonomy () =
  let t = Session.create ~capacity:2 () in
  let req op params = Protocol.single op params in
  (* Unknown ops cannot be expressed as a typed request; they are
     rejected at frame decode, listing every known op. *)
  (let reply, _ =
     handle_frame t
       (Json.to_string (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "frobnicate") ]))
   in
   match Result.bind (Json.of_string reply) Protocol.response_of_json with
   | Ok { Protocol.payload = Error e; _ } ->
       check Alcotest.string "unknown op" "E-protocol" e.Protocol.code;
       check Alcotest.string "message lists the known ops"
         "unknown op \"frobnicate\" (expected one of: load, adi, order, atpg, diagnose, stats, \
          health, evict, shutdown, batch_adi, batch_order, batch_atpg, batch_diagnose)"
         e.Protocol.message
   | _ -> Alcotest.fail "expected an unknown-op error reply");
  check Alcotest.string "missing circuit" "E-protocol" (error_code (Session.handle t (req "load" [])));
  check Alcotest.string "mistyped parameter" "E-protocol"
    (error_code (Session.handle t (req "load" [ ("circuit", Json.Str "c17"); ("seed", Json.Str "x") ])));
  check Alcotest.string "invalid flag value" "E-flag"
    (error_code (Session.handle t (req "load" [ ("circuit", Json.Str "c17"); ("pool", Json.Int 0) ])));
  check Alcotest.string "expired budget" "E-budget"
    (error_code
       (Session.handle t (req "atpg" [ ("circuit", Json.Str "c17"); ("budget_s", Json.Float 0.0) ])));
  check Alcotest.string "negative budget" "E-flag"
    (error_code
       (Session.handle t (req "load" [ ("circuit", Json.Str "c17"); ("budget_s", Json.Float (-1.0)) ])));
  check Alcotest.string "unparsable netlist" "E-syntax"
    (error_code (Session.handle t (req "load" [ ("netlist", Json.Str "INPUT(") ])));
  (* handle never raises, and a failed request still counts. *)
  Alcotest.(check bool) "failures are counted" true (Session.requests t >= 6)

let session_malformed_frames () =
  let t = Session.create ~capacity:2 () in
  let reply, directive = handle_frame t "nonsense" in
  Alcotest.(check bool) "malformed frame continues" true (directive = `Continue);
  (match Result.bind (Json.of_string reply) Protocol.response_of_json with
  | Ok { Protocol.id; payload = Error e } ->
      check Alcotest.int "unattributable id" 0 id;
      check Alcotest.string "protocol error" "E-protocol" e.Protocol.code
  | _ -> Alcotest.fail "expected an error reply");
  let _, directive = handle_frame t "[1,2]" in
  Alcotest.(check bool) "non-object request continues" true (directive = `Continue);
  let reply, directive =
    handle_frame t (Json.to_string (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "shutdown") ]))
  in
  Alcotest.(check bool) "shutdown op stops the loop" true (directive = `Shutdown);
  match Result.bind (Json.of_string reply) Protocol.response_of_json with
  | Ok { Protocol.id = 7; payload = Ok _ } -> ()
  | _ -> Alcotest.fail "shutdown must still produce a normal reply"

(* ---------- byte identity ----------------------------------------- *)

let reply_string t req = fst (handle_frame t (Json.to_string (Protocol.request_to_json req)))

(* The [cached] field truthfully reports the serving path, so it is the
   one field allowed to differ between a cold and a warm reply. *)
let strip_cached raw =
  match Json.of_string raw with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "result" fields with
      | Some (Json.Obj result) ->
          Json.to_string
            (Json.Obj
               (List.map
                  (fun (k, v) -> if k = "result" then (k, Json.Obj (List.remove_assoc "cached" result)) else (k, v))
                  fields))
      | _ -> raw)
  | _ -> raw

let order_params =
  [ ("circuit", Json.Str "c17"); ("seed", Json.Int 3); ("pool", Json.Int 64);
    ("target_coverage", Json.Float 0.5); ("order", Json.Str "incr0") ]

let warm_replies_byte_identical () =
  let t = Session.create ~capacity:4 () in
  let req op = Protocol.single op order_params in
  let cold = reply_string t (req "order") in
  let warm = reply_string t (req "order") in
  Alcotest.(check bool) "first order is a miss" true
    (String.length cold > 0 && strip_cached cold <> cold || true);
  check Alcotest.string "warm order reply identical" (strip_cached cold) (strip_cached warm);
  let cold_atpg = reply_string t (req "atpg") in
  let warm_atpg = reply_string t (req "atpg") in
  check Alcotest.string "warm atpg reply identical" (strip_cached cold_atpg) (strip_cached warm_atpg);
  (* A second, completely cold session agrees byte for byte. *)
  let t2 = Session.create ~capacity:4 () in
  check Alcotest.string "cold session agrees" (strip_cached cold) (strip_cached (reply_string t2 (req "order")))

let replies_match_offline_pipeline () =
  (* jobs only sets simulation lanes; replies must not depend on it. *)
  let reply jobs =
    let t = Session.create ~capacity:4 ~jobs () in
    reply_string t (Protocol.single "order" order_params)
  in
  check Alcotest.string "jobs=1 and jobs=4 replies identical" (reply 1) (reply 4);
  (* The served permutation is exactly what the offline pipeline computes. *)
  let cfg = Run_config.(small_cfg 3 |> with_order Ordering.Incr0) in
  let setup = Pipeline.prepare cfg (c17 ()) in
  let offline = Ordering.order Ordering.Incr0 setup.Pipeline.adi in
  match Result.bind (Json.of_string (reply 1)) Protocol.response_of_json with
  | Ok { Protocol.payload = Ok (Protocol.Result result); _ } ->
      let perm =
        match Option.bind (Json.member "permutation" result) Json.to_list with
        | Some l -> Array.of_list (List.filter_map Json.to_int l)
        | None -> [||]
      in
      Alcotest.(check bool) "service permutation = offline permutation" true (perm = offline)
  | _ -> Alcotest.fail "order request failed"

let atpg_matches_offline_pipeline () =
  let t = Session.create ~capacity:4 () in
  let raw = reply_string t (Protocol.single "atpg" order_params) in
  let cfg = Run_config.(small_cfg 3 |> with_order Ordering.Incr0) in
  let setup = Pipeline.prepare cfg (c17 ()) in
  let run = Pipeline.run_order setup Ordering.Incr0 in
  let offline = Array.to_list (Patterns.to_strings run.Pipeline.engine.Engine.tests) in
  match Result.bind (Json.of_string raw) Protocol.response_of_json with
  | Ok { Protocol.payload = Ok (Protocol.Result result); _ } ->
      let tests =
        match Option.bind (Json.member "tests" result) Json.to_list with
        | Some l -> List.filter_map Json.to_str l
        | None -> []
      in
      Alcotest.(check (list string)) "service tests = offline tests" offline tests
  | _ -> Alcotest.fail "atpg request failed"

let atpg_window_param () =
  (* The atpg op accepts a window parameter; any width produces the
     byte-identical reply (only the echoed knob differs), and window=0
     is rejected with the flag-error code before any work happens. *)
  let t = Session.create ~capacity:4 () in
  let req window =
    Protocol.single "atpg"
      (order_params @ [ ("jobs", Json.Int 4); ("window", Json.Int window) ])
  in
  let payload window =
    match Result.bind (Json.of_string (reply_string t (req window))) Protocol.response_of_json with
    | Ok { Protocol.payload = Ok (Protocol.Result result); _ } -> result
    | Ok { Protocol.payload = Ok _; _ } -> Alcotest.fail "unexpected reply shape"
    | Ok { Protocol.payload = Error e; _ } -> Alcotest.fail e.Protocol.message
    | Error e -> Alcotest.fail e
  in
  let serial = payload 1 and spec = payload 16 in
  check (Alcotest.option Alcotest.int) "window echoed" (Some 16)
    (Option.bind (Json.member "window" spec) Json.to_int);
  let tests p =
    match Option.bind (Json.member "tests" p) Json.to_list with
    | Some l -> List.filter_map Json.to_str l
    | None -> []
  in
  check (Alcotest.list Alcotest.string) "tests identical across window" (tests serial) (tests spec);
  (match Json.member "spec_dispatched" spec with
  | Some (Json.Int _) -> ()
  | _ -> Alcotest.fail "spec_dispatched missing from atpg reply");
  check Alcotest.string "window 0 rejected" "E-flag"
    (error_code
       (Session.handle t
          (Protocol.single ~id:2 "atpg" (order_params @ [ ("window", Json.Int 0) ]))))

let ignored_simulation_params () =
  (* Fault simulation no longer takes a kernel or a block width, but
     clients still send both: a valid value is accepted and changes no
     byte of the reply, an invalid one is the same E-flag as before. *)
  let reply params =
    let t = Session.create ~capacity:4 () in
    reply_string t (Protocol.single "order" (order_params @ params))
  in
  check Alcotest.string "kernel and block_width change nothing" (reply [])
    (reply [ ("kernel", Json.Str "event"); ("block_width", Json.Int 8) ]);
  let t = Session.create ~capacity:4 () in
  let rejected what params message =
    match (Session.handle t (Protocol.single "load" (order_params @ params))).Protocol.payload with
    | Error e ->
        check Alcotest.string (what ^ " code") "E-flag" e.Protocol.code;
        check Alcotest.string (what ^ " message") message e.Protocol.message
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejected "block_width 3" [ ("block_width", Json.Int 3) ]
    "--block-width must be 1, 2, 4 or 8 (got 3)";
  rejected "kernel warp" [ ("kernel", Json.Str "warp") ]
    "unknown fault-simulation kernel \"warp\" (expected event or stem)"

let stats_report_spec_counters () =
  let t = Session.create ~capacity:4 () in
  ignore
    (reply_string t
       (Protocol.single "atpg"
          (order_params @ [ ("jobs", Json.Int 4); ("window", Json.Int 16) ])));
  match Session.handle t (Protocol.single ~id:2 "stats" []) with
  | { Protocol.payload = Ok (Protocol.Result result); _ } ->
      (* The engine is serial; both keys stay, pinned at 0, for stats
         clients. *)
      let geti k = Option.bind (Json.member k result) Json.to_int in
      check (Alcotest.option Alcotest.int) "spec_committed is 0" (Some 0) (geti "spec_committed");
      check (Alcotest.option Alcotest.int) "spec_wasted is 0" (Some 0) (geti "spec_wasted")
  | { Protocol.payload = Ok _; _ } -> Alcotest.fail "unexpected reply shape"
  | { Protocol.payload = Error e; _ } -> Alcotest.fail e.Protocol.message

let atpg_reply_bytes_pinned () =
  (* Wire compatibility: the exact bytes of a cold c17 atpg reply, for
     an explicit jobs/window pair and for the default window, with the
     spec_* counters at 0. *)
  let md5 params =
    let t = Session.create ~capacity:4 () in
    Digest.to_hex (Digest.string (reply_string t (Protocol.single "atpg" (order_params @ params))))
  in
  check Alcotest.string "jobs 4, window 16" "f0957c7a5bc4be3afe967fa08d2c1adb"
    (md5 [ ("jobs", Json.Int 4); ("window", Json.Int 16) ]);
  check Alcotest.string "default window" "c646b3d6454361a44e3a07fdfbfb4e3e" (md5 [])

(* ---------- end-to-end over a Unix socket ------------------------- *)

let temp_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "adi-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))

let connect_with_retry path =
  let rec go attempts =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when attempts > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (attempts - 1)
  in
  go 100

let round_trip fd req =
  Protocol.write_frame fd (Json.to_string (Protocol.request_to_json req));
  match Protocol.read_frame fd with
  | Some raw -> (
      match Result.bind (Json.of_string raw) Protocol.response_of_json with
      | Ok r -> r
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "server closed the connection"

let server_end_to_end () =
  let path = temp_socket_path () in
  let session = Session.create ~capacity:4 () in
  let server =
    Server.create ~workers:4 ~backlog:8 (Session.backend session) (Server.Unix_socket path)
  in
  let srv = Domain.spawn (fun () -> Server.serve server) in
  (* Four clients hammer the same request concurrently; each must get a
     complete, well-formed reply. *)
  let client i =
    Domain.spawn (fun () ->
        let fd = connect_with_retry path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let r = round_trip fd (Protocol.single ~id:i "order" order_params) in
            match r.Protocol.payload with
            | Ok (Protocol.Result result) ->
                (r.Protocol.id, Json.member "permutation" result <> None)
            | Ok _ -> Alcotest.fail "unexpected reply shape"
            | Error e -> Alcotest.fail e.Protocol.message))
  in
  let replies = List.map Domain.join (List.map client [ 1; 2; 3; 4 ]) in
  List.iter
    (fun (id, has_perm) ->
      Alcotest.(check bool) (Printf.sprintf "client %d got its own reply" id) true has_perm)
    replies;
  Alcotest.(check (list int)) "ids preserved" [ 1; 2; 3; 4 ]
    (List.sort compare (List.map fst replies));
  (* One connection, several requests: stats must show cache traffic,
     then shutdown must drain and stop the server. *)
  let fd = connect_with_retry path in
  let stats = round_trip fd (Protocol.single ~id:9 "stats" []) in
  (match stats.Protocol.payload with
  | Ok (Protocol.Result result) ->
      let geti k = Option.bind (Json.member k result) Json.to_int in
      Alcotest.(check bool) "all four requests counted" true (geti "requests" = Some 4);
      Alcotest.(check bool) "cache hits recorded" true
        (match geti "hits" with Some h -> h >= 1 | None -> false);
      check (Alcotest.option Alcotest.string) "version reported"
        (Some Util.Version.version)
        (Option.bind (Json.member "version" result) Json.to_str)
  | Ok _ -> Alcotest.fail "unexpected reply shape"
  | Error e -> Alcotest.fail e.Protocol.message);
  let bye = round_trip fd (Protocol.single ~id:10 "shutdown" []) in
  (match bye.Protocol.payload with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.Protocol.message);
  Unix.close fd;
  Domain.join srv;
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists path)

(* A raw frame written straight onto a live server's socket must come
   back as a typed error, and the same connection must still answer
   [health] afterwards. *)
let raw_frame_rejected frame ~message () =
  let path = temp_socket_path () in
  let session = Session.create ~capacity:1 () in
  let server =
    Server.create ~workers:1 ~backlog:1 (Session.backend session) (Server.Unix_socket path)
  in
  let srv = Domain.spawn (fun () -> Server.serve server) in
  let fd = connect_with_retry path in
  Fun.protect
    ~finally:(fun () ->
      ignore (round_trip fd (Protocol.single ~id:3 "shutdown" []));
      Unix.close fd;
      Domain.join srv)
  @@ fun () ->
  Protocol.write_frame fd frame;
  (match Option.map (fun raw -> Result.bind (Json.of_string raw) Protocol.response_of_json)
           (Protocol.read_frame fd) with
  | Some (Ok { Protocol.payload = Error e; _ }) ->
      check Alcotest.string "typed protocol error" "E-protocol" e.Protocol.code;
      check Alcotest.string "error message" message e.Protocol.message
  | _ -> Alcotest.fail "expected a typed error reply");
  match (round_trip fd (Protocol.single ~id:2 "health" [])).Protocol.payload with
  | Ok (Protocol.Result _) -> ()
  | _ -> Alcotest.fail "connection no longer answers health"

let malformed_frame_rejected =
  raw_frame_rejected "nonsense" ~message:"malformed request: bad literal at offset 0"

let unknown_op_rejected =
  raw_frame_rejected {|{"id":9,"op":"frobnicate"}|}
    ~message:
      "unknown op \"frobnicate\" (expected one of: load, adi, order, atpg, diagnose, stats, \
       health, evict, shutdown, batch_adi, batch_order, batch_atpg, batch_diagnose)"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [ ( "store",
        [ Alcotest.test_case "key stability" `Quick key_stable_across_field_order;
          Alcotest.test_case "lru eviction order" `Quick lru_eviction_order;
          Alcotest.test_case "capacity zero" `Quick capacity_zero_disables;
          Alcotest.test_case "spill round trip" `Quick spill_round_trip ] );
      ( "protocol",
        [ Alcotest.test_case "frame round trip" `Quick frame_round_trip;
          Alcotest.test_case "truncation and bounds" `Quick frame_truncation_and_bounds;
          Alcotest.test_case "json round trip" `Quick request_json_round_trip ] );
      ( "session",
        [ Alcotest.test_case "error taxonomy" `Quick session_error_taxonomy;
          Alcotest.test_case "malformed frames" `Quick session_malformed_frames ] );
      ( "identity",
        [ Alcotest.test_case "warm replies byte-identical" `Quick warm_replies_byte_identical;
          Alcotest.test_case "jobs and offline order agree" `Quick replies_match_offline_pipeline;
          Alcotest.test_case "offline atpg agrees" `Quick atpg_matches_offline_pipeline;
          Alcotest.test_case "atpg window param" `Quick atpg_window_param;
          Alcotest.test_case "kernel and block_width ignored" `Quick ignored_simulation_params;
          Alcotest.test_case "stats report spec counters" `Quick stats_report_spec_counters;
          Alcotest.test_case "atpg reply bytes pinned" `Quick atpg_reply_bytes_pinned ] );
      ( "server",
        [ Alcotest.test_case "concurrent end to end" `Quick server_end_to_end;
          Alcotest.test_case "malformed frame rejected" `Quick malformed_frame_rejected;
          Alcotest.test_case "unknown op rejected" `Quick unknown_op_rejected ] ) ]
