module Json = Util.Json
module Diagnostics = Util.Diagnostics
module Budget = Util.Budget
module Retry = Util.Retry
module Trace = Util.Trace
module Metrics = Util.Metrics

type worker = {
  address : Server.address;
  alive : bool;
  forwarded : int;
}

type t = {
  addresses : Server.address array;
  vnodes : int;
  ring : (int * int) array;  (* (hash point, worker index), sorted by point *)
  policy : Retry.policy;
  probe_timeout_s : float;
  clock : Budget.clock;
  tracer : Trace.t;
  lock : Mutex.t;
  live : bool array;
  sent : int array;
  last_worker : (string, int) Hashtbl.t;
  mutable hits : int;
  mutable moves : int;
  mutable failover_count : int;
  mutable n_requests : int;
  mutable n_errors : int;
  mutable n_shed : int;
  mutable lane_restarts : int;
  mutable runtime : unit -> (string * Json.t) list;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The top 62 bits of an MD5 — plenty of spread, and comfortably a
   native [int] on 64-bit, so ring points sort and compare for free. *)
let hash_point s =
  Int64.to_int (Int64.shift_right_logical (String.get_int64_be (Digest.string s) 0) 2)

let build_ring addresses vnodes =
  let points =
    Array.init (Array.length addresses * vnodes) (fun i ->
        let w = i / vnodes and v = i mod vnodes in
        (hash_point (Printf.sprintf "%s#%d" (Server.address_to_string addresses.(w)) v), w))
  in
  Array.sort compare points;
  points

let create ?(vnodes = 64) ?(policy = Client.default_policy) ?(probe_timeout_s = 2.0)
    ?(clock = Budget.default_clock) ?tracer addresses =
  if addresses = [] then invalid_arg "Router.create: at least one worker address";
  if vnodes < 1 then invalid_arg "Router.create: vnodes must be >= 1";
  let tracer = match tracer with Some tr -> tr | None -> Trace.current () in
  let addresses = Array.of_list addresses in
  let n = Array.length addresses in
  { addresses; vnodes; ring = build_ring addresses vnodes; policy; probe_timeout_s;
    clock; tracer; lock = Mutex.create (); live = Array.make n true; sent = Array.make n 0;
    last_worker = Hashtbl.create 64; hits = 0; moves = 0; failover_count = 0;
    n_requests = 0; n_errors = 0; n_shed = 0; lane_restarts = 0; runtime = (fun () -> []) }

let workers t =
  locked t (fun () ->
      Array.to_list
        (Array.mapi
           (fun w address -> { address; alive = t.live.(w); forwarded = t.sent.(w) })
           t.addresses))

let requests t = locked t (fun () -> t.n_requests)
let affinity t = locked t (fun () -> (t.hits, t.moves))
let failovers t = locked t (fun () -> t.failover_count)

let set_alive t w v =
  if w < 0 || w >= Array.length t.addresses then invalid_arg "Router.set_alive";
  locked t (fun () -> t.live.(w) <- v)

(* --- the ring ------------------------------------------------------ *)

(* The affinity key is the same identity the worker's artifact store
   hashes: the inline netlist text, or the named circuit.  The
   "netlist|"/"circuit|" prefixes keep the two namespaces disjoint. *)
let routing_key params =
  match List.assoc_opt "netlist" params with
  | Some (Json.Str text) -> Some (Digest.to_hex (Digest.string ("netlist|" ^ text)))
  | _ -> (
      match List.assoc_opt "circuit" params with
      | Some (Json.Str name) -> Some (Digest.to_hex (Digest.string ("circuit|" ^ name)))
      | _ -> None)

(* Clockwise from the key's ring position, first live owner wins.
   Only a dead worker's own points are skipped, so its keys scatter
   to their next-clockwise neighbours and everyone else's stay put. *)
let worker_for t key =
  let n = Array.length t.ring in
  let h = hash_point key in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  let start = if !lo = n then 0 else !lo in
  let rec scan steps =
    if steps >= n then None
    else
      let _, w = t.ring.((start + steps) mod n) in
      if t.live.(w) then Some w else scan (steps + 1)
  in
  scan 0

let any_live t =
  let n = Array.length t.addresses in
  let rec scan w = if w >= n then None else if t.live.(w) then Some w else scan (w + 1) in
  scan 0

(* --- probing and drain -------------------------------------------- *)

let probe_policy t =
  { t.policy with
    Retry.max_attempts = 2; base_delay_s = 0.05; max_delay_s = 0.2;
    attempt_budget_s = Some t.probe_timeout_s;
    overall_budget_s = Some (2.0 *. t.probe_timeout_s) }

(* Every router->worker exchange gets its own short-lived client, so a
   router lane holds a worker lane only while its own forward is in
   flight — never while it waits on another worker. *)
let with_worker_client t ~policy w f =
  let client = Client.create ~policy ~clock:t.clock t.addresses.(w) in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let probe_worker t w =
  with_worker_client t ~policy:(probe_policy t) w (fun client ->
      match Client.health client () with Ok _ -> true | Error _ -> false)

let probe t =
  Array.iteri (fun w _ -> set_alive t w (probe_worker t w)) t.addresses

let drain_fleet t =
  Array.iteri
    (fun w _ ->
      with_worker_client t ~policy:(probe_policy t) w (fun client ->
          ignore (Client.shutdown client () : (Json.t, Diagnostics.t) result)))
    t.addresses

(* --- forwarding ---------------------------------------------------- *)

exception Worker_down of int * Diagnostics.t

(* One forward.  A typed reply — even an error — is an answer and
   passes through; retry exhaustion on the transport plane means the
   worker is gone.  A deadline or shed exhaustion is neither: the
   worker is alive but saturated, so it surfaces as a typed error
   without poisoning the ring. *)
let forward t w call =
  locked t (fun () -> t.sent.(w) <- t.sent.(w) + 1);
  match with_worker_client t ~policy:t.policy w (fun client -> Client.call_exn client call) with
  | (Ok _ | Error _) as reply -> reply
  | exception Diagnostics.Failed d -> (
      match d.Diagnostics.code with
      | Diagnostics.Io_error | Diagnostics.Protocol -> raise (Worker_down (w, d))
      | _ -> Error (Protocol.error_of_diagnostic d))

let mark_down t w =
  locked t (fun () ->
      t.live.(w) <- false;
      t.failover_count <- t.failover_count + 1);
  if Trace.enabled t.tracer then Metrics.incr (Trace.counter t.tracer "router.failovers")

let note_affinity t key w =
  locked t (fun () ->
      (match Hashtbl.find_opt t.last_worker key with
      | Some prev when prev = w -> t.hits <- t.hits + 1
      | Some _ -> t.moves <- t.moves + 1
      | None -> ());
      Hashtbl.replace t.last_worker key w)

let no_live_error t =
  { Protocol.code = Diagnostics.code_string Diagnostics.Io_error;
    message =
      Printf.sprintf "no live workers (%d configured)" (Array.length t.addresses) }

(* Pick the key's owner; when the whole fleet looks dead, spend one
   inline probe before giving up — a blipped worker should not fail
   requests for a full probe interval. *)
let rec pick t key ~probed =
  let choice = match key with Some k -> worker_for t k | None -> any_live t in
  match choice with
  | Some w -> Some w
  | None when not probed ->
      probe t;
      pick t key ~probed:true
  | None -> None

let rec route_single t op params ~attempts =
  if attempts > Array.length t.addresses then Error (no_live_error t)
  else
    let key = routing_key params in
    match pick t key ~probed:false with
    | None -> Error (no_live_error t)
    | Some w -> (
        Option.iter (fun k -> note_affinity t k w) key;
        try forward t w (Protocol.Single (op, params))
        with Worker_down (w, _) ->
          mark_down t w;
          route_single t op params ~attempts:(attempts + 1))

(* A batch splits by target worker (each group keeps request order),
   forwards one sub-batch per worker, and reassembles per-item replies
   by original index.  A group whose worker dies mid-flight re-routes
   through the (now updated) ring, so one death degrades to a failover
   rather than a batch-wide error. *)
let route_batch t op items =
  let arr = Array.of_list items in
  let out = Array.make (Array.length arr) (Error (no_live_error t)) in
  let rec place idxs ~attempts =
    if idxs <> [] then
      if attempts > Array.length t.addresses then
        List.iter (fun i -> out.(i) <- Error (no_live_error t)) idxs
      else begin
        let groups : (int, int list) Hashtbl.t = Hashtbl.create 4 in
        let grouped =
          List.filter
            (fun i ->
              let key = routing_key arr.(i) in
              match pick t key ~probed:false with
              | None -> false
              | Some w ->
                  Option.iter (fun k -> note_affinity t k w) key;
                  Hashtbl.replace groups w (i :: Option.value ~default:[] (Hashtbl.find_opt groups w));
                  true)
            idxs
        in
        List.iter (fun i -> out.(i) <- Error (no_live_error t))
          (List.filter (fun i -> not (List.mem i grouped)) idxs);
        let retry = ref [] in
        Hashtbl.iter
          (fun w rev_idxs ->
            let group = List.rev rev_idxs in
            let sub = List.map (fun i -> arr.(i)) group in
            match forward t w (Protocol.Batch (op, sub)) with
            | Ok (Protocol.Batch_replies replies) when List.length replies = List.length group ->
                List.iter2 (fun i reply -> out.(i) <- reply) group replies
            | Ok _ ->
                let e =
                  { Protocol.code = Diagnostics.code_string Diagnostics.Protocol;
                    message = "worker returned a malformed batch reply" }
                in
                List.iter (fun i -> out.(i) <- Error e) group
            | Error e -> List.iter (fun i -> out.(i) <- Error e) group
            | exception Worker_down (w, _) ->
                mark_down t w;
                retry := group @ !retry)
          groups;
        place (List.sort compare !retry) ~attempts:(attempts + 1)
      end
  in
  place (List.init (Array.length arr) Fun.id) ~attempts:0;
  Array.to_list out

(* --- fleet-level ops ----------------------------------------------- *)

(* Fan one op out to every configured worker, collecting per-worker
   outcomes in configuration order. *)
let fan_out t call =
  Array.to_list
    (Array.mapi
       (fun w _ ->
         if not t.live.(w) then (w, Error (no_live_error t))
         else
           match forward t w call with
           | reply -> (w, reply)
           | exception Worker_down (w', d) ->
               mark_down t w';
               (w, Error (Protocol.error_of_diagnostic d)))
       t.addresses)

let stats_reply t =
  let per_worker = fan_out t (Protocol.Single (Protocol.Stats, [])) in
  let worker_objs =
    List.map
      (fun (w, outcome) ->
        let base =
          [ ("address", Json.Str (Server.address_to_string t.addresses.(w)));
            ("alive", Json.Bool t.live.(w));
            ("forwarded", Json.Int t.sent.(w)) ]
        in
        match outcome with
        | Ok (Protocol.Result j) -> Json.Obj (base @ [ ("stats", j) ])
        | Ok _ | Error _ -> Json.Obj base)
      per_worker
  in
  let hits, moves = affinity t in
  Json.Obj
    [ ("role", Json.Str "router");
      ("requests", Json.Int (requests t));
      ("errors", Json.Int (locked t (fun () -> t.n_errors)));
      ("affinity_hits", Json.Int hits);
      ("affinity_moves", Json.Int moves);
      ("failovers", Json.Int (failovers t));
      ("workers", Json.Arr worker_objs) ]

let health_reply t =
  let live = locked t (fun () -> Array.fold_left (fun n a -> if a then n + 1 else n) 0 t.live) in
  Json.Obj
    ([ ("status", Json.Str (if live > 0 then "ok" else "degraded"));
       ("version", Json.Str Util.Version.version);
       ("role", Json.Str "router");
       ("workers", Json.Int (Array.length t.addresses));
       ("live_workers", Json.Int live);
       ("requests", Json.Int (requests t));
       ("shed", Json.Int (locked t (fun () -> t.n_shed)));
       ("lane_restarts", Json.Int (locked t (fun () -> t.lane_restarts))) ]
    @ t.runtime ())

(* Eviction fans out; the shapes mirror a single worker's reply, plus
   how many workers answered. *)
let evict_reply t params =
  let per_worker = fan_out t (Protocol.Single (Protocol.Evict, params)) in
  let answered =
    List.filter_map (function _, Ok (Protocol.Result j) -> Some j | _ -> None) per_worker
  in
  let reached = List.length answered in
  match List.assoc_opt "key" params with
  | Some _ ->
      let evicted =
        List.exists
          (fun j -> match j with
            | Json.Obj fields -> List.assoc_opt "evicted" fields = Some (Json.Bool true)
            | _ -> false)
          answered
      in
      Json.Obj [ ("evicted", Json.Bool evicted); ("workers", Json.Int reached) ]
  | None ->
      let cleared =
        List.fold_left
          (fun n j -> match j with
            | Json.Obj fields -> (
                match List.assoc_opt "cleared" fields with
                | Some (Json.Int c) -> n + c
                | _ -> n)
            | _ -> n)
          0 answered
      in
      Json.Obj [ ("cleared", Json.Int cleared); ("workers", Json.Int reached) ]

(* --- the request handler ------------------------------------------- *)

let count_request t ~failed =
  locked t (fun () ->
      t.n_requests <- t.n_requests + 1;
      if failed then t.n_errors <- t.n_errors + 1);
  if Trace.enabled t.tracer then begin
    Metrics.incr (Trace.counter t.tracer "router.requests");
    if failed then Metrics.incr (Trace.counter t.tracer "router.errors")
  end

let handle t (req : Protocol.request) =
  let payload =
    match req.Protocol.call with
    | Protocol.Single (Protocol.Stats, _) -> Ok (Protocol.Result (stats_reply t))
    | Protocol.Single (Protocol.Health, _) -> Ok (Protocol.Result (health_reply t))
    | Protocol.Single (Protocol.Evict, params) -> Ok (Protocol.Result (evict_reply t params))
    | Protocol.Single (Protocol.Shutdown, _) ->
        Ok (Protocol.Result (Json.Obj [ ("stopping", Json.Bool true) ]))
    | Protocol.Single (op, params) -> route_single t op params ~attempts:0
    | Protocol.Batch (op, items) -> Ok (Protocol.Batch_replies (route_batch t op items))
  in
  count_request t ~failed:(Result.is_error payload);
  { Protocol.id = req.Protocol.id; payload }

let shed t payload =
  locked t (fun () -> t.n_shed <- t.n_shed + 1);
  if Trace.enabled t.tracer then Metrics.incr (Trace.counter t.tracer "router.shed");
  Protocol.shed_reply ~message:"router overloaded: request shed before routing" payload

let backend t =
  { Server.handle =
      Protocol.answer_frame ~rejected:(fun () -> count_request t ~failed:true) (handle t);
    shed = shed t;
    on_queue_depth = (fun _ -> ());
    on_inflight = (fun _ -> ());
    on_lane_restart = (fun () -> locked t (fun () -> t.lane_restarts <- t.lane_restarts + 1));
    set_runtime = (fun f -> t.runtime <- f) }
