(* Tests for batch ops and the fleet layer: batch ops (qcheck
   properties: request order preserved, every item byte-identical to
   the equivalent sequential single op, across cold and warm caches
   and jobs=1 vs jobs=4), the client's wire traffic (a batch is one
   frame), the shared write-through spill store, the router's
   consistent-hash ring (cache affinity, minimal rehash on death,
   revival restores the mapping), an end-to-end router fleet with a
   worker kill and failover, the router's own replies to frames it
   never routes, and two clients crossing between one-lane workers. *)

module Json = Util.Json
module D = Util.Diagnostics
module Store = Service.Store
module Protocol = Service.Protocol
module Session = Service.Session
module Server = Service.Server
module Client = Service.Client
module Router = Service.Router

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adi-fleet-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* ---------- batch ops: qcheck properties -------------------------- *)

let circuits = [| "c17"; "lion"; "syn208" |]

(* A batch item: a circuit plus a small config that exercises distinct
   cache keys.  Kept small — every property run pays for real ADI
   computation. *)
let item_gen =
  QCheck.Gen.(
    map2
      (fun c seed ->
        [ ("circuit", Json.Str circuits.(c)); ("seed", Json.Int (1 + seed));
          ("pool", Json.Int 64); ("target_coverage", Json.Float 0.5) ])
      (int_bound (Array.length circuits - 1))
      (int_bound 1))

let batch_gen =
  QCheck.Gen.(
    map2
      (fun op items -> ((if op = 0 then Protocol.Adi else Protocol.Order), items))
      (int_bound 1)
      (list_size (int_range 1 4) item_gen))

let arb_batch =
  QCheck.make
    ~print:(fun (op, items) ->
      Printf.sprintf "batch_%s %s" (Protocol.op_name op)
        (String.concat "; " (List.map (fun ps -> Json.to_string (Json.Obj ps)) items)))
    batch_gen

let batch_replies t op items =
  match (Session.handle t { Protocol.id = 1; call = Protocol.Batch (op, items) })
          .Protocol.payload
  with
  | Ok (Protocol.Batch_replies rs) -> rs
  | Ok _ -> Alcotest.fail "expected batch replies"
  | Error e -> Alcotest.fail ("batch failed whole: " ^ e.Protocol.message)

let single_reply t op params =
  (Session.handle t (Protocol.single ~id:1 (Protocol.op_name op) params)).Protocol.payload

let reply_str = function
  | Ok j -> "ok:" ^ Json.to_string j
  | Error (e : Protocol.error) -> "err:" ^ e.Protocol.code ^ ":" ^ e.Protocol.message

let strip_cached = function
  | Ok (Json.Obj fields) -> Ok (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
  | r -> r

(* One batch against a fresh session must equal the same ops sent
   sequentially as single ops to another fresh session — byte for
   byte, cached flags included, in request order. *)
let batch_equals_sequential =
  QCheck.Test.make ~name:"batch items = sequential v1 ops, byte-identical" ~count:6 arb_batch
    (fun (op, items) ->
      let batch_t = Session.create ~capacity:4 ~jobs:1 () in
      let seq_t = Session.create ~capacity:4 ~jobs:1 () in
      let batched = batch_replies batch_t op items in
      let sequential =
        List.map
          (fun params ->
            match single_reply seq_t op params with
            | Ok (Protocol.Result j) -> Ok j
            | Ok _ -> Alcotest.fail "unexpected single reply shape"
            | Error e -> Error e)
          items
      in
      List.length batched = List.length items
      && List.for_all2 (fun b s -> reply_str b = reply_str s) batched sequential)

(* The same batch served warm must agree with the cold run modulo the
   truthful cached flag, and jobs must never leak into replies. *)
let batch_warm_and_jobs_identical =
  QCheck.Test.make ~name:"batch cold = warm (modulo cached) = jobs=4" ~count:4 arb_batch
    (fun (op, items) ->
      let t1 = Session.create ~capacity:8 ~jobs:1 () in
      let cold = batch_replies t1 op items in
      let warm = batch_replies t1 op items in
      let t4 = Session.create ~capacity:8 ~jobs:4 () in
      let cold4 = batch_replies t4 op items in
      List.for_all2
        (fun c w -> reply_str (strip_cached c) = reply_str (strip_cached w))
        cold warm
      && List.for_all2 (fun c c4 -> reply_str c = reply_str c4) cold cold4)

let batch_isolates_bad_items () =
  let t = Session.create ~capacity:4 () in
  let good = [ ("circuit", Json.Str "c17"); ("seed", Json.Int 3); ("pool", Json.Int 64) ] in
  let bad = [ ("circuit", Json.Str "c17"); ("pool", Json.Int 0) ] in
  match batch_replies t Protocol.Adi [ good; bad; good ] with
  | [ Ok _; Error e; Ok _ ] ->
      check Alcotest.string "bad item is typed" "E-flag" e.Protocol.code
  | rs -> Alcotest.fail (Printf.sprintf "expected ok/err/ok, got %d replies" (List.length rs))

(* ---------- client wire traffic ----------------------------------- *)

(* Run [serve] on the one connection a fresh client makes to a
   hand-rolled server, and [f] on that client.  The client is closed
   before the server is joined, so [serve] may read until EOF. *)
let with_fake_server ~serve f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "adi-fake-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let server =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listener in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> serve fd))
  in
  let client = Client.create (Server.Unix_socket path) in
  let result = Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client) in
  let served = Domain.join server in
  Unix.close listener;
  Sys.remove path;
  (result, served)

(* A hand-rolled server that records every frame a fresh client sends
   and answers each through a real session: a batch must go out as one
   frame, with no handshake before it.  A "hello" frame is an ordinary
   unknown op whose error lists the batch ops. *)
let batch_is_one_frame () =
  let session = Session.create ~capacity:2 () in
  let handle_frame = (Session.backend session).Server.handle in
  let rec serve frames fd =
    match Protocol.read_frame fd with
    | None -> List.rev frames
    | Some payload ->
        Protocol.write_frame fd (fst (handle_frame payload));
        serve (payload :: frames) fd
  in
  let reply, frames =
    with_fake_server ~serve:(serve [])
      (fun client -> Client.batch client Protocol.Adi [ [ ("circuit", Json.Str "c17") ] ])
  in
  (match reply with
  | Ok [ Ok _ ] -> ()
  | _ -> Alcotest.fail "the batch did not come back with one ok item");
  let op_of payload =
    Option.bind (Result.to_option (Json.of_string payload)) (fun j ->
        Option.bind (Json.member "op" j) Json.to_str)
  in
  check (Alcotest.option Alcotest.string) "first frame is the batch" (Some "batch_adi")
    (Option.bind (List.nth_opt frames 0) op_of);
  check Alcotest.int "exactly one frame on the wire" 1 (List.length frames);
  let reply, _ = handle_frame {|{"id":5,"op":"hello"}|} in
  match Result.bind (Json.of_string reply) Protocol.response_of_json with
  | Ok { Protocol.id = 5; payload = Error e } ->
      let contains msg sub =
        let n = String.length msg and m = String.length sub in
        let rec scan i = i + m <= n && (String.sub msg i m = sub || scan (i + 1)) in
        scan 0
      in
      check Alcotest.string "hello is an unknown op" "E-protocol" e.Protocol.code;
      Alcotest.(check bool) "error lists the batch ops" true
        (contains e.Protocol.message "batch_adi")
  | _ -> Alcotest.fail "expected an unknown-op error echoing id 5"

(* ---------- shared write-through spill ---------------------------- *)

let shared_spill_seeds_sibling_workers () =
  with_temp_dir @@ fun dir ->
  let cfg = Run_config.(default |> with_seed 5 |> with_pool 64 |> with_target_coverage 0.5) in
  let circuit = Suite.build_by_name "c17" in
  let a = Store.create ~capacity:4 ~spill_dir:dir ~write_through:true () in
  let _, cached_a = Store.find_or_prepare a cfg circuit in
  Alcotest.(check bool) "first worker computes cold" false cached_a;
  check Alcotest.int "fresh setup written through" 1 (Store.stats a).Store.spill_writes;
  (* A sibling worker sharing the directory finds it on disk. *)
  let b = Store.create ~capacity:4 ~spill_dir:dir ~write_through:true () in
  let _, cached_b = Store.find_or_prepare b cfg circuit in
  Alcotest.(check bool) "sibling served from the shared spill" true cached_b;
  check Alcotest.int "served by disk, not memory" 1 (Store.stats b).Store.spill_hits;
  check Alcotest.int "spill reload does not rewrite" 0 (Store.stats b).Store.spill_writes;
  (* Write-through without a spill directory is a configuration error. *)
  match Store.create ~capacity:4 ~write_through:true () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "write_through without spill_dir must be rejected"

(* ---------- the consistent-hash ring ------------------------------ *)

let fake_addresses n =
  List.init n (fun i -> Server.Unix_socket (Printf.sprintf "/tmp/adi-ring-%d.sock" i))

let keys_for_test =
  List.init 200 (fun i -> Digest.to_hex (Digest.string (Printf.sprintf "key-%d" i)))

let ring_affinity_is_stable_and_minimal () =
  let r = Router.create ~vnodes:64 (fake_addresses 3) in
  let before = List.map (fun k -> (k, Router.worker_for r k)) keys_for_test in
  (* Same key, same worker — the cache-affinity property. *)
  List.iter
    (fun (k, w) ->
      Alcotest.(check bool)
        (Printf.sprintf "stable mapping for %s" k)
        true
        (Router.worker_for r k = w))
    before;
  (* Every worker owns a share of a 200-key universe. *)
  let owned w = List.length (List.filter (fun (_, w') -> w' = Some w) before) in
  List.iter
    (fun w ->
      Alcotest.(check bool) (Printf.sprintf "worker %d owns keys" w) true (owned w > 0))
    [ 0; 1; 2 ];
  (* Killing one worker rehashes only its keys. *)
  Router.set_alive r 1 false;
  List.iter
    (fun (k, w) ->
      match w with
      | Some 1 -> (
          match Router.worker_for r k with
          | Some w' when w' <> 1 -> ()
          | _ -> Alcotest.fail "dead worker's key not rerouted to a live worker")
      | w -> Alcotest.(check bool) "live workers' keys stay put" true (Router.worker_for r k = w))
    before;
  (* Revival restores exactly the original mapping. *)
  Router.set_alive r 1 true;
  List.iter
    (fun (k, w) ->
      Alcotest.(check bool) "revival restores the mapping" true (Router.worker_for r k = w))
    before;
  (* All dead: nothing to route to. *)
  List.iter (fun w -> Router.set_alive r w false) [ 0; 1; 2 ];
  Alcotest.(check bool) "no live workers, no owner" true
    (Router.worker_for r (List.hd keys_for_test) = None)

let routing_key_tracks_circuit_identity () =
  let k1 = Router.routing_key [ ("circuit", Json.Str "c17"); ("seed", Json.Int 1) ] in
  let k2 = Router.routing_key [ ("circuit", Json.Str "c17"); ("seed", Json.Int 2) ] in
  let k3 = Router.routing_key [ ("circuit", Json.Str "lion") ] in
  Alcotest.(check bool) "same circuit, same key (config is irrelevant)" true (k1 = k2 && k1 <> None);
  Alcotest.(check bool) "different circuit, different key" true (k1 <> k3);
  Alcotest.(check bool) "no circuit, no key" true (Router.routing_key [] = None);
  let inline = Router.routing_key [ ("netlist", Json.Str "INPUT(a)\nOUTPUT(a)\n") ] in
  Alcotest.(check bool) "inline netlists key by content" true
    (inline <> None && inline <> Router.routing_key [ ("netlist", Json.Str "other") ])

(* ---------- end-to-end: router fleet ------------------------------ *)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "adi-%s-%d-%d.sock" name (Unix.getpid ()) (Random.bits ()))

let start_backend ?(workers = 2) ?max_inflight ?queue_wait_s backend address =
  let server = Server.create ~workers ~backlog:8 ?max_inflight ?queue_wait_s backend address in
  let ready = Atomic.make false in
  let dom =
    Domain.spawn (fun () -> Server.serve server ~on_ready:(fun () -> Atomic.set ready true))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  (server, dom)

let router_fleet_end_to_end () =
  let params name = [ ("circuit", Json.Str name); ("seed", Json.Int 3); ("pool", Json.Int 64) ] in
  let expected name =
    let pristine = Session.create ~capacity:4 ~jobs:1 () in
    match single_reply pristine Protocol.Adi (params name) with
    | Ok (Protocol.Result j) -> reply_str (strip_cached (Ok j))
    | _ -> Alcotest.fail "offline pipeline failed"
  in
  let want_c17 = expected "c17" and want_lion = expected "lion" in
  let w0_addr = Server.Unix_socket (temp_socket "fleet-w0") in
  let w1_addr = Server.Unix_socket (temp_socket "fleet-w1") in
  let s0 = Session.create ~capacity:4 ~jobs:1 () in
  let s1 = Session.create ~capacity:4 ~jobs:1 () in
  let w0, d0 = start_backend (Session.backend s0) w0_addr in
  let w1, d1 = start_backend (Session.backend s1) w1_addr in
  let router = Router.create ~policy:{ Client.default_policy with Util.Retry.max_attempts = 2; base_delay_s = 0.005 } [ w0_addr; w1_addr ] in
  let front = Server.Unix_socket (temp_socket "fleet-router") in
  let rs, rd = start_backend (Router.backend router) front in
  let client = Client.create front in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Server.request_stop rs;
      Domain.join rd;
      Server.request_stop w0;
      Server.request_stop w1;
      Domain.join d0;
      Domain.join d1)
    (fun () ->
      (* A batch through the router: in order, byte-identical. *)
      (match Client.batch client Protocol.Adi [ params "c17"; params "lion" ] with
      | Ok [ r1; r2 ] ->
          check Alcotest.string "batch item 1 byte-identical" want_c17
            (reply_str (strip_cached r1));
          check Alcotest.string "batch item 2 byte-identical" want_lion
            (reply_str (strip_cached r2))
      | Ok rs -> Alcotest.fail (Printf.sprintf "expected 2 replies, got %d" (List.length rs))
      | Error d -> Alcotest.fail (D.to_string d));
      (* Affinity: the same circuit keeps landing on the same worker. *)
      for _ = 1 to 3 do
        match Client.adi client (params "c17") with
        | Ok _ -> ()
        | Error d -> Alcotest.fail (D.to_string d)
      done;
      let hits, moves = Router.affinity router in
      Alcotest.(check bool) "repeat requests hit their worker" true (hits >= 3);
      check Alcotest.int "no spurious rehashing" 0 moves;
      (* Kill the worker that owns c17; the next request fails over. *)
      let owner =
        match Router.worker_for router (Option.get (Router.routing_key (params "c17"))) with
        | Some w -> w
        | None -> Alcotest.fail "no owner for c17"
      in
      let owner_server, owner_domain = if owner = 0 then (w0, d0) else (w1, d1) in
      Server.request_stop owner_server;
      Domain.join owner_domain;
      (match Client.adi client (params "c17") with
      | Ok j -> check Alcotest.string "failover reply byte-identical" want_c17 (reply_str (strip_cached (Ok j)))
      | Error d -> Alcotest.fail ("failover failed: " ^ D.to_string d));
      Alcotest.(check bool) "failover recorded" true (Router.failovers router >= 1);
      let dead = List.nth (Router.workers router) owner in
      Alcotest.(check bool) "dead worker marked" false dead.Router.alive;
      (* Fleet health reflects the loss. *)
      match Client.health client () with
      | Ok j ->
          check (Alcotest.option Alcotest.int) "one live worker" (Some 1)
            (Option.bind (Json.member "live_workers" j) Json.to_int);
          check (Alcotest.option Alcotest.string) "router role" (Some "router")
            (Option.bind (Json.member "role" j) Json.to_str)
      | Error d -> Alcotest.fail (D.to_string d))

(* ---------- router front door -------------------------------------- *)

(* One raw exchange on an open connection: the reply frame verbatim. *)
let raw_exchange fd payload =
  Protocol.write_frame fd payload;
  match Protocol.read_frame fd with Some reply -> reply | None -> Alcotest.fail "router hung up"

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* The router's own replies to frames it never routes — malformed,
   unknown op, shed by admission control — pinned byte for byte, and
   counted in its [errors] and [shed] figures.  The one worker listens
   but never accepts, so a forward to it holds the router's single
   in-flight slot until the listener closes. *)
let router_front_door_replies () =
  let worker_path = temp_socket "front-worker" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX worker_path);
  Unix.listen listener 8;
  let close_listener = lazy (Unix.close listener) in
  let router =
    Router.create
      ~policy:{ Client.default_policy with Util.Retry.max_attempts = 2; base_delay_s = 0.005 }
      [ Server.Unix_socket worker_path ]
  in
  let front = temp_socket "front-router" in
  let rs, rd =
    start_backend ~max_inflight:1 ~queue_wait_s:0.0 (Router.backend router)
      (Server.Unix_socket front)
  in
  let fd = raw_connect front in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Lazy.force close_listener;
      Server.request_stop rs;
      Domain.join rd;
      Sys.remove worker_path)
    (fun () ->
      check Alcotest.string "malformed frame"
        {|{"id":0,"ok":false,"error":{"code":"E-protocol","message":"malformed request: bad literal at offset 0"}}|}
        (raw_exchange fd "nonsense");
      check Alcotest.string "unknown op"
        {|{"id":4,"ok":false,"error":{"code":"E-protocol","message":"unknown op \"frobnicate\" (expected one of: load, adi, order, atpg, diagnose, stats, health, evict, shutdown, batch_adi, batch_order, batch_atpg, batch_diagnose)"}}|}
        (raw_exchange fd {|{"id":4,"op":"frobnicate"}|});
      let held = raw_connect front in
      let forward =
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Unix.close held) (fun () ->
                raw_exchange held {|{"id":8,"op":"load","circuit":"c17"}|}))
      in
      while (List.hd (Router.workers router)).Router.forwarded = 0 do
        Unix.sleepf 0.002
      done;
      check Alcotest.string "shed frame"
        {|{"id":9,"ok":false,"error":{"code":"E-overload","message":"router overloaded: request shed before routing"}}|}
        (raw_exchange fd {|{"id":9,"op":"stats"}|});
      Lazy.force close_listener;
      check Alcotest.string "held forward finds no live worker"
        {|{"id":8,"ok":false,"error":{"code":"E-io","message":"no live workers (1 configured)"}}|}
        (Domain.join forward);
      let field name reply =
        match Result.bind (Json.of_string reply) Protocol.response_of_json with
        | Ok { Protocol.payload = Ok (Protocol.Result j); _ } ->
            Option.bind (Json.member name j) Json.to_int
        | _ -> None
      in
      let stats = raw_exchange fd {|{"id":10,"op":"stats"}|} in
      check (Alcotest.option Alcotest.int) "requests before stats, shed not counted" (Some 3)
        (field "requests" stats);
      check (Alcotest.option Alcotest.int) "every one of them an error" (Some 3)
        (field "errors" stats);
      check (Alcotest.option Alcotest.int) "one shed" (Some 1)
        (field "shed" (raw_exchange fd {|{"id":11,"op":"health"}|})))

(* ---------- router lanes never wait on each other ------------------- *)

(* Two one-lane workers behind a two-lane router.  Client A warms a
   circuit owned by w0 and client B one owned by w1; then each asks
   for the other's circuit at the same time.  A router connection
   that pinned a worker lane for its own lifetime would leave each
   forward queued behind the other client's idle connection until
   both time out. *)
let router_crossing_clients_both_answered () =
  let netlist i =
    [ ("netlist", Json.Str (Printf.sprintf "INPUT(a)\nINPUT(b)\nOUTPUT(z%d)\nz%d = AND(a, b)\n" i i)) ]
  in
  let w0_addr = Server.Unix_socket (temp_socket "cross-w0") in
  let w1_addr = Server.Unix_socket (temp_socket "cross-w1") in
  let router = Router.create [ w0_addr; w1_addr ] in
  let owned_by w =
    let rec find i =
      if Router.worker_for router (Option.get (Router.routing_key (netlist i))) = Some w then
        netlist i
      else find (i + 1)
    in
    find 0
  in
  let on_w0 = owned_by 0 and on_w1 = owned_by 1 in
  let w0, d0 = start_backend ~workers:1 (Session.backend (Session.create ~capacity:4 ())) w0_addr in
  let w1, d1 = start_backend ~workers:1 (Session.backend (Session.create ~capacity:4 ())) w1_addr in
  let front = Server.Unix_socket (temp_socket "cross-router") in
  let rs, rd = start_backend ~workers:2 (Router.backend router) front in
  let a = Client.create front and b = Client.create front in
  Fun.protect
    ~finally:(fun () ->
      Client.close a;
      Client.close b;
      (* Workers first: a router lane stuck on a worker is freed when
         that worker goes away. *)
      Server.request_stop w0;
      Server.request_stop w1;
      Domain.join d0;
      Domain.join d1;
      Server.request_stop rs;
      Domain.join rd)
    (fun () ->
      let ok what = function Ok _ -> () | Error d -> Alcotest.fail (what ^ ": " ^ D.to_string d) in
      ok "A warms w0" (Client.load a on_w0);
      ok "B warms w1" (Client.load b on_w1);
      let cross = Domain.spawn (fun () -> Client.load b ~timeout_s:5. on_w0) in
      let a_reply = Client.load a ~timeout_s:5. on_w1 in
      let b_reply = Domain.join cross in
      ok "A crosses to w1" a_reply;
      ok "B crosses to w0" b_reply)

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  (* Several servers share this process, and each restores the SIGPIPE
     handler it found when it stops; ignored from the start, a write to
     a vanished peer stays an EPIPE instead of killing the suite. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "fleet"
    [ ( "protocol-v2",
        [ Alcotest.test_case "batch isolates bad items" `Quick batch_isolates_bad_items;
          qtest batch_equals_sequential;
          qtest batch_warm_and_jobs_identical ] );
      ( "client",
        [ Alcotest.test_case "batch is one frame" `Quick batch_is_one_frame ] );
      ( "store",
        [ Alcotest.test_case "shared write-through spill" `Quick shared_spill_seeds_sibling_workers ] );
      ( "ring",
        [ Alcotest.test_case "affinity stable, rehash minimal" `Quick ring_affinity_is_stable_and_minimal;
          Alcotest.test_case "routing key identity" `Quick routing_key_tracks_circuit_identity ] );
      ( "fleet",
        [ Alcotest.test_case "router end to end with failover" `Quick router_fleet_end_to_end;
          Alcotest.test_case "router front-door replies" `Quick router_front_door_replies;
          Alcotest.test_case "crossing clients both answered" `Quick
            router_crossing_clients_both_answered ] ) ]
