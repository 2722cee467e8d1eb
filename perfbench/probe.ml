(* The benchmark's in-process probe.

   run.py owns the workloads, the statistics and the result line.  This
   program does the parts that have to call into the library from the
   benchmark's own code:

   - [parse] is one set-up sample of paper_orders and order_large;
   - [reference] and [cold-op] serve cold_atpg: the expected outputs,
     and the traced replica of one cold op;
   - [paper-orders], [order-large] and [service-mix] run a whole
     workload and print its raw samples.

   Every subcommand prints one JSON object as its last stdout line.
   With [--spans FILE] the layer calls below are timed from here (the
   library itself carries no benchmark spans), kept in memory, and
   written to FILE as JSON lines when the subcommand ends. *)

module Json = Util.Json

let now = Unix.gettimeofday

(* ---------- arguments ---------- *)

let opts : (string * string) list ref = ref []
let positional : string list ref = ref []

let parse_argv argv =
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts := (String.sub key 2 (String.length key - 2), value) :: !opts;
        go rest
    | x :: rest ->
        positional := x :: !positional;
        go rest
    | [] -> positional := List.rev !positional
  in
  go argv

let opt name =
  match List.assoc_opt name !opts with
  | Some v -> v
  | None -> failwith ("probe: missing --" ^ name)

let int_opt name = int_of_string (opt name)
let spans_file () = List.assoc_opt "spans" !opts

(* ---------- spans ---------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  attrs : (string * Json.t) list;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

(* Main-domain only: the span stack is a plain ref. *)
let span ?(attrs = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f in
    let t1 = now () in
    spans := { id; parent; name; t0; t1; attrs = attrs r } :: !spans;
    r
  end

let write_spans () =
  match spans_file () with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun s ->
              output_string oc
                (Json.to_string
                   (Json.Obj
                      [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                        ("name", Json.Str s.name); ("start", Json.Float s.t0);
                        ("end", Json.Float s.t1); ("attrs", Json.Obj s.attrs) ]));
              output_char oc '\n')
            (List.rev !spans))

(* ---------- helpers ---------- *)

let print_result fields =
  write_spans ();
  print_endline (Json.to_string (Json.Obj fields))

let md5 s = Digest.to_hex (Digest.string s)

(* Exactly the bytes [adi-atpg atpg -o FILE] writes. *)
let tests_text pats =
  String.concat "" (List.map (fun s -> s ^ "\n") (Array.to_list (Patterns.to_strings pats)))

let circuit_name path = Filename.remove_extension (Filename.basename path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Peak resident set of a process, from /proc (0 where unavailable). *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> loop ()
          in
          loop ())

let floats xs = Json.Arr (List.map (fun x -> Json.Float x) xs)

(* The configuration [adi-atpg atpg --seed S --order K] builds, with
   [jobs] set to what the CLI defaults to (the machine's core count). *)
let config ~seed ~jobs kind =
  Run_config.(default |> with_jobs jobs |> with_seed seed |> with_order kind)

(* Runs [f] [reps] times; returns every duration and the last result. *)
let repeat reps f =
  let rec go k acc last =
    if k = 0 then (List.rev acc, Option.get last)
    else begin
      let t0 = now () in
      let r = f () in
      go (k - 1) ((now () -. t0) :: acc) (Some r)
    end
  in
  go reps [] None

let parse_snapshot path =
  span "netlist.parse"
    ~attrs:(fun c -> [ ("gates", Json.Int (Circuit.gate_count c)) ])
    (fun () -> Bench_format.parse_file path)

(* ---------- the pipeline, one layer call at a time ---------- *)

(* Pipeline.prepare, decomposed into its layer calls so each can be
   timed; the result is the same record [Pipeline.prepare] builds. *)
let prepare_traced (cfg : Run_config.t) circuit =
  let { Run_config.seed; pool; target_coverage; jobs; block_width; faultsim_kernel = kernel; _ }
      =
    cfg
  in
  let collapse =
    span "faults.collapse"
      ~attrs:(fun r -> [ ("classes", Json.Int (Fault_list.count r.Collapse.representatives)) ])
      (fun () -> Collapse.equivalence (Fault_list.full circuit))
  in
  let faults = collapse.Collapse.representatives in
  let selection =
    span "sim.select_u"
      ~attrs:(fun s -> [ ("u_size", Json.Int (Patterns.count s.Adi_index.u)) ])
      (fun () ->
        Adi_index.select_u ~pool ~target_coverage ~jobs ?kernel ~block_width
          (Util.Rng.create seed) faults)
  in
  let adi =
    span "sim.detection_sets" (fun () ->
        Adi_index.compute ~jobs ?kernel ~block_width faults selection.Adi_index.u)
  in
  { Pipeline.circuit; faults; collapse; selection; adi; config = cfg }

let engine_attrs (e : Engine.result) =
  let st = e.Engine.stats in
  [ ("decisions", Json.Int st.Podem.decisions); ("backtracks", Json.Int st.Podem.backtracks);
    ("aborted", Json.Int (List.length e.Engine.aborted));
    ("untestable", Json.Int (List.length e.Engine.untestable));
    ("retry_recovered", Json.Int e.Engine.retry_recovered);
    ("spec_dispatched", Json.Int e.Engine.spec_dispatched);
    ("spec_committed", Json.Int e.Engine.spec_committed) ]

let order_traced (setup : Pipeline.setup) kind =
  span ("adi.order." ^ Ordering.to_string kind) (fun () -> Ordering.order kind setup.Pipeline.adi)

let run_order_traced (setup : Pipeline.setup) kind =
  let order = order_traced setup kind in
  let engine =
    span "atpg.engine" ~attrs:engine_attrs (fun () ->
        Engine.run ~config:(Run_config.engine_config setup.Pipeline.config) setup.Pipeline.faults
          ~order)
  in
  { Pipeline.kind; order; engine }

let prepare ~traced cfg c = if traced then prepare_traced cfg c else Pipeline.prepare cfg c

let run_order ~traced setup kind =
  if traced then run_order_traced setup kind else Pipeline.run_order setup kind

(* tests, AVE and fault coverage from an independent fault simulation
   of the vectors, not from the engine's own bookkeeping. *)
let quality (faults, pats) =
  let curve = Coverage.of_test_set faults pats in
  (Patterns.count pats, Coverage.ave curve, Coverage.final_coverage curve)

let quality_fields (tests, ave, coverage) =
  [ ("tests", Json.Int tests); ("ave", Json.Float ave); ("fault_coverage", Json.Float coverage) ]

(* Summed test counts, mean AVE and mean coverage over several runs. *)
let sum_quality runs =
  let qs = List.map quality runs in
  let n = float_of_int (List.length qs) in
  let sum f = List.fold_left (fun a q -> a +. f q) 0.0 qs in
  quality_fields
    ( List.fold_left (fun a (t, _, _) -> a + t) 0 qs,
      sum (fun (_, a, _) -> a) /. n,
      sum (fun (_, _, c) -> c) /. n )

let op_json label s ok =
  Json.Obj [ ("label", Json.Str label); ("s", Json.Float s); ("ok", Json.Bool ok) ]

(* ---------- set-up and cold_atpg helpers ---------- *)

(* One set-up sample of paper_orders / order_large: parse the snapshots
   in a fresh process, timed from inside it. *)
let cmd_parse files =
  let t = now () in
  let circuits = List.map Bench_format.parse_file files in
  let dt = now () -. t in
  print_result
    [ ("parse_s", Json.Float dt);
      ("gates", Json.Int (List.fold_left (fun a c -> a + Circuit.gate_count c) 0 circuits)) ]

(* Expected [atpg --order 0dynm] output for each snapshot, from the
   in-process pipeline on the parsed .bench file. *)
let cmd_reference files =
  let seed = int_opt "seed" and jobs = int_opt "jobs" in
  let entries =
    List.map
      (fun f ->
        let c = Bench_format.parse_file f in
        let setup = Pipeline.prepare (config ~seed ~jobs Ordering.Dynm0) c in
        let tests = (Pipeline.run_order setup Ordering.Dynm0).Pipeline.engine.Engine.tests in
        Json.Obj
          ([ ("circuit", Json.Str (circuit_name f));
             ("tests_md5", Json.Str (md5 (tests_text tests))) ]
          @ quality_fields (quality (setup.Pipeline.faults, tests))))
      files
  in
  print_result [ ("circuits", Json.Arr entries) ]

(* One cold op, as [adi-atpg atpg NAME --order 0dynm -o FILE] does it,
   with every layer call timed. *)
let cmd_cold_op name =
  let seed = int_opt "seed" and jobs = int_opt "jobs" in
  tracing := true;
  let c =
    span "circuits.build"
      ~attrs:(fun c -> [ ("gates", Json.Int (Circuit.gate_count c)) ])
      (fun () -> Suite.build_by_name name)
  in
  let setup = prepare_traced (config ~seed ~jobs Ordering.Dynm0) c in
  let r = run_order_traced setup Ordering.Dynm0 in
  let text = tests_text r.Pipeline.engine.Engine.tests in
  let oc = open_out_bin (opt "out") in
  output_string oc text;
  close_out oc;
  print_result [ ("tests_md5", Json.Str (md5 text)) ]

(* ---------- traced runs of the in-process workloads ---------- *)

(* In a traced run every timed step runs twice back to back, once as
   the program's own entry point and once a layer call at a time under
   spans, alternating which goes first, so the machine's drift cancels
   out of the tracing overhead.  [walls] sums the two sides. *)
let walls = [| 0.0; 0.0 |]
let flip = ref false

let paired f =
  let run traced =
    let t = now () in
    tracing := traced;
    let r = f ~traced in
    tracing := false;
    let dt = now () -. t in
    let side = if traced then 1 else 0 in
    walls.(side) <- walls.(side) +. dt;
    (r, dt)
  in
  flip := not !flip;
  if !flip then
    let plain = run false in
    (plain, run true)
  else
    let traced = run true in
    (run false, traced)

(* One timed step: [f ~traced:false] alone, or both sides paired in a
   traced run; returns every (result, seconds) sample. *)
let step ~traced_run f =
  if traced_run then
    let plain, traced = paired f in
    [ plain; traced ]
  else
    let t = now () in
    let r = f ~traced:false in
    [ (r, now () -. t) ]

let trace_fields traced_run =
  if traced_run then
    [ ("untraced_wall_s", Json.Float walls.(0)); ("traced_wall_s", Json.Float walls.(1)) ]
  else []

(* ---------- paper_orders ---------- *)

(* Six orders per snapshot circuit, with the per-circuit preparation
   inside the timed phase.  The timed phase is [units] whole sweeps, so
   every run has the same mix of (circuit, order) pairs. *)
let cmd_paper_orders files =
  let seed = int_opt "seed" and jobs = int_opt "jobs" and units = int_opt "units" in
  let traced_run = spans_file () <> None in
  tracing := traced_run;
  let circuits = List.map (fun f -> (circuit_name f, parse_snapshot f)) files in
  tracing := false;
  let cfg = config ~seed ~jobs Ordering.Dynm0 in
  let sweep () =
    List.concat_map
      (fun (name, c) ->
        let setups = step ~traced_run (fun ~traced -> prepare ~traced cfg c) in
        List.concat_map
          (fun kind ->
            let label = name ^ "/" ^ Ordering.to_string kind in
            step ~traced_run (fun ~traced ->
                let setup = fst (List.nth setups (if traced then 1 else 0)) in
                let r = run_order ~traced setup kind in
                (setup.Pipeline.faults, r.Pipeline.engine.Engine.tests))
            |> List.map (fun ((faults, tests), dt) -> (label, dt, faults, tests)))
          Ordering.all)
      circuits
  in
  let t_start = now () in
  let sweeps = List.init (if traced_run then 1 else units) (fun _ -> sweep ()) in
  let wall = now () -. t_start in
  (* Reference, outside the timed phase: the same pairs at jobs=1. *)
  let expected = Hashtbl.create 128 in
  List.iter
    (fun (name, c) ->
      let setup = Pipeline.prepare (config ~seed ~jobs:1 Ordering.Dynm0) c in
      List.iter
        (fun kind ->
          let r = Pipeline.run_order setup kind in
          Hashtbl.replace expected
            (name ^ "/" ^ Ordering.to_string kind)
            (md5 (tests_text r.Pipeline.engine.Engine.tests)))
        Ordering.all)
    circuits;
  let ops =
    List.concat_map
      (List.map (fun (label, dt, _, tests) ->
           op_json label dt (Hashtbl.find_opt expected label = Some (md5 (tests_text tests)))))
      sweeps
  in
  let first = List.sort_uniq (fun (a, _, _, _) (b, _, _, _) -> compare a b) (List.hd sweeps) in
  print_result
    ([ ("wall_s", Json.Float wall); ("ops", Json.Arr ops);
       ("digests",
        Json.Obj
          (List.map
             (fun (label, _, _, _) -> (label, Json.Str (Hashtbl.find expected label)))
             first));
       ("quality", Json.Obj (sum_quality (List.map (fun (_, _, fl, tests) -> (fl, tests)) first)));
       ("gates", Json.Int (List.fold_left (fun a (_, c) -> a + Circuit.gate_count c) 0 circuits));
       ("peak_rss_mb", Json.Float (peak_rss_mb "self")) ]
    @ trace_fields traced_run)

(* ---------- order_large ---------- *)

(* Independent check of a dynamic order, by a different procedure than
   Ordering's lazy heap: replay the ndet decrements, re-derive each
   pick's current ADI (it may never rise), and at [samples] seeded steps
   scan every remaining fault for the (highest ADI, smallest index)
   winner the procedure must have picked. *)
let verify_dynamic ~seed ~samples (t : Adi_index.t) ~zero_first perm =
  let n = Fault_list.count t.Adi_index.fault_list in
  let seen = Array.make n false in
  let is_perm =
    Array.length perm = n
    && Array.for_all
         (fun f ->
           f >= 0 && f < n
           && (not seen.(f))
           &&
           (seen.(f) <- true;
            true))
         perm
  in
  if not is_perm then false
  else begin
    let zeros = List.filter (fun f -> t.Adi_index.adi.(f) = 0) (List.init n Fun.id) in
    let nz = List.length zeros in
    let zero_part = Array.sub perm (if zero_first then 0 else n - nz) nz in
    let picks = Array.sub perm (if zero_first then nz else 0) (n - nz) in
    let m = Array.length picks in
    let ndet = Array.copy t.Adi_index.ndet in
    let current f =
      let lo = ref max_int in
      Util.Bitvec.iter_set t.Adi_index.dsets.(f) (fun u -> if ndet.(u) < !lo then lo := ndet.(u));
      !lo
    in
    let sampled = Array.make m false in
    let rng = Util.Rng.create seed in
    if m > 0 then begin
      sampled.(0) <- true;
      sampled.(m - 1) <- true;
      for _ = 1 to samples do
        sampled.(Util.Rng.int rng m) <- true
      done
    end;
    let placed = Array.make n false in
    let ok = ref (Array.to_list zero_part = zeros) in
    let prev = ref max_int in
    Array.iteri
      (fun i f ->
        if !ok then begin
          let a = current f in
          if t.Adi_index.adi.(f) = 0 || a > !prev then ok := false;
          if sampled.(i) then
            for g = 0 to n - 1 do
              if (not placed.(g)) && t.Adi_index.adi.(g) > 0 && g <> f then begin
                let c = current g in
                if c > a || (c = a && g < f) then ok := false
              end
            done;
          prev := a;
          placed.(f) <- true;
          Util.Bitvec.iter_set t.Adi_index.dsets.(f) (fun u -> ndet.(u) <- ndet.(u) - 1)
        end)
      picks;
    !ok
  end

let cmd_order_large file =
  let seed = int_opt "seed" and jobs = int_opt "jobs" and units = int_opt "units" in
  let traced_run = spans_file () <> None in
  let kinds = [ Ordering.Dynm; Ordering.Dynm0 ] in
  tracing := traced_run;
  let circuit = parse_snapshot file in
  tracing := false;
  let cfg = config ~seed ~jobs Ordering.Dynm in
  let unit_ () =
    let setups = step ~traced_run (fun ~traced -> prepare ~traced cfg circuit) in
    let ops =
      List.concat_map
        (fun kind ->
          step ~traced_run (fun ~traced ->
              let setup = fst (List.nth setups (if traced then 1 else 0)) in
              if traced then order_traced setup kind else Ordering.order kind setup.Pipeline.adi)
          |> List.map (fun (perm, dt) -> (Ordering.to_string kind, dt, perm)))
        kinds
    in
    (fst (List.hd setups), ops)
  in
  let t_start = now () in
  let units = List.init (if traced_run then 1 else units) (fun _ -> unit_ ()) in
  let wall = now () -. t_start in
  (* Outside the timed phase: every permutation is checked against an
     independent replay of the dynamic procedure, and both orders must
     place the detected faults in the same sequence. *)
  let ops =
    List.concat_map
      (fun ((setup : Pipeline.setup), ops) ->
        let detected perm =
          List.filter (fun f -> setup.Pipeline.adi.Adi_index.adi.(f) > 0) (Array.to_list perm)
        in
        let seqs = List.map (fun (_, _, perm) -> detected perm) ops in
        let agree = List.for_all (fun s -> s = List.hd seqs) seqs in
        List.map
          (fun (label, dt, perm) ->
            let ok =
              agree
              && verify_dynamic ~seed ~samples:32 setup.Pipeline.adi ~zero_first:(label = "0dynm")
                   perm
            in
            op_json label dt ok)
          ops)
      units
  in
  let first = List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) (snd (List.hd units)) in
  let perm_digest perm = md5 (String.concat "," (Array.to_list (Array.map string_of_int perm))) in
  let setup, _ = List.hd units in
  print_result
    ([ ("wall_s", Json.Float wall); ("ops", Json.Arr ops);
       ("digests",
        Json.Obj (List.map (fun (label, _, perm) -> (label, Json.Str (perm_digest perm))) first));
       ("faults", Json.Int (Fault_list.count setup.Pipeline.faults));
       ("u_size", Json.Int (Patterns.count setup.Pipeline.selection.Adi_index.u));
       ("gates", Json.Int (Circuit.gate_count circuit));
       ("peak_rss_mb", Json.Float (peak_rss_mb "self")) ]
    @ trace_fields traced_run)

(* ---------- service_mix ---------- *)

module P = Service.Protocol

(* Replies are compared without their truthful [cached] flags, at every
   depth (diagnose nests a dictionary-cache flag). *)
let rec strip_cached = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "cached" then None else Some (k, strip_cached v))
           fields)
  | j -> j

type request = { label : string; op : P.op; items : P.params list }

let request_key r = r.label ^ Json.to_string (Json.Arr (List.map (fun p -> Json.Obj p) r.items))

let send client r =
  match r.items with
  | [ params ] when r.label <> "batch_atpg" ->
      Service.Client.single client r.op params
      |> Result.map (fun j -> Json.to_string (strip_cached j))
  | items -> (
      match Service.Client.batch client r.op items with
      | Error d -> Error d
      | Ok replies ->
          if List.for_all Result.is_ok replies then
            Ok
              (Json.to_string
                 (Json.Arr (List.map (fun x -> strip_cached (Result.get_ok x)) replies)))
          else Error (Util.Diagnostics.error Util.Diagnostics.Protocol "batch item failed"))

(* The same request answered by an in-process session. *)
let handle_local session r =
  let one params =
    match (Service.Session.handle session (P.single (P.op_name r.op) params)).P.payload with
    | Ok (P.Result j) -> Some (strip_cached j)
    | _ -> None
  in
  match r.items with
  | [ params ] when r.label <> "batch_atpg" -> Option.map Json.to_string (one params)
  | items ->
      let replies = List.map one items in
      if List.for_all Option.is_some replies then
        Some (Json.to_string (Json.Arr (List.map Option.get replies)))
      else None

let stat_int j k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)

let cmd_service_mix files =
  let seed = int_opt "seed" in
  let connections = int_opt "connections" and server_exe = opt "server" in
  let traced_run = spans_file () <> None in
  let netlists = List.map (fun f -> (circuit_name f, read_file f)) files in
  let socket = Filename.concat (opt "work") (Printf.sprintf "mix-%d.sock" (Unix.getpid ())) in
  let address = Service.Server.Unix_socket socket in
  let client_exn c r =
    match send c r with Ok s -> s | Error d -> failwith (Util.Diagnostics.to_string d)
  in
  let base name = [ ("netlist", Json.Str (List.assoc name netlists)); ("seed", Json.Int seed) ] in
  let single label op params = { label; op; items = [ params ] } in
  let atpg_req name = single "atpg" P.Atpg (base name @ [ ("order", Json.Str "0dynm") ]) in
  let server = ref None in
  (* A graceful stop drains the server through the front door; either
     way the process is reaped before this returns. *)
  let stop_server ~graceful =
    match !server with
    | None -> ()
    | Some pid ->
        server := None;
        if graceful then begin
          let c = Service.Client.create address in
          ignore (Service.Client.shutdown c ~timeout_s:30.0 ());
          Service.Client.close c
        end
        else Unix.kill pid Sys.sigkill;
        let deadline = now () +. 30.0 in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when now () < deadline ->
              Unix.sleepf 0.01;
              wait ()
          | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid)
          | _ -> ()
        in
        wait ()
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  (* Set-up: start a server, then upload and warm the read working set
     (a setup, an ATPG test set and a fault dictionary per circuit). *)
  let start_and_warm () =
    let pid =
      Unix.create_process server_exe
        [| server_exe; "--socket"; socket; "--workers"; string_of_int connections; "--jobs"; "1" |]
        devnull devnull devnull
    in
    server := Some pid;
    let c = Service.Client.create address in
    let deadline = now () +. 30.0 in
    let rec ready () =
      match Service.Client.health c ~timeout_s:1.0 () with
      | Ok _ -> ()
      | Error _ when now () < deadline ->
          Unix.sleepf 0.005;
          ready ()
      | Error d -> failwith (Util.Diagnostics.to_string d)
    in
    ready ();
    let tests =
      List.map
        (fun (name, _) ->
          ignore (client_exn c (single "load" P.Load (base name)));
          let reply = Json.parse (client_exn c (atpg_req name)) in
          let tests = Option.get (Option.bind (Json.member "tests" reply) Json.to_list) in
          ignore
            (client_exn c
               (single "diagnose" P.Diagnose
                  (base name @ [ ("tests", Json.Arr tests); ("fails", Json.Arr [ Json.Int 0 ]) ])));
          (name, tests))
        netlists
    in
    Service.Client.close c;
    tests
  in
  Fun.protect ~finally:(fun () -> stop_server ~graceful:false) @@ fun () ->
  let setup_s, tests =
    repeat 3 (fun () ->
        stop_server ~graceful:true;
        start_and_warm ())
  in
  (* The seeded request mix: decks of every read op on every circuit,
     one batch over the whole working set and two writes (a load with a
     seed no request used before: a miss, a prepare, an insert and, once
     the free slots are gone, an eviction), each deck shuffled. *)
  let diagnose_req rng name =
    let t = List.assoc name tests in
    let nt = List.length t in
    let fails = List.sort_uniq compare [ Util.Rng.int rng nt; Util.Rng.int rng nt ] in
    single "diagnose" P.Diagnose
      (base name
      @ [ ("tests", Json.Arr t); ("fails", Json.Arr (List.map (fun i -> Json.Int i) fails));
          ("limit", Json.Int 5) ])
  in
  let names = List.map fst netlists in
  (* A write: a load with a seed no other request uses. *)
  let write i =
    let name = List.nth names (i mod List.length names) in
    single "load" P.Load
      [ ("netlist", Json.Str (List.assoc name netlists)); ("seed", Json.Int (seed + 1 + i)) ]
  in
  let batch =
    { label = "batch_atpg"; op = P.Atpg;
      items = List.map (fun n -> base n @ [ ("order", Json.Str "0dynm") ]) names }
  in
  let deck k =
    let rng = Util.Rng.create ((seed * 7919) + k) in
    let reads =
      List.concat_map
        (fun name ->
          [ Some (atpg_req name);
            Some (single "order" P.Order (base name @ [ ("order", Json.Str "dynm") ]));
            Some (single "adi" P.Adi (base name)); Some (diagnose_req rng name) ])
        names
    in
    let arr = Array.of_list (Some batch :: None :: None :: reads) in
    for i = Array.length arr - 1 downto 1 do
      let j = Util.Rng.int rng (i + 1) in
      let x = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- x
    done;
    let first = k * Array.length arr in
    Array.mapi (fun j r -> match r with Some r -> r | None -> write (first + j)) arr
  in
  let requests = Array.concat (List.init (int_opt "decks") deck) in
  let total = Array.length requests in
  let deck_size = total / int_opt "decks" in
  let stats () =
    let c = Service.Client.create address in
    let s = Result.get_ok (Service.Client.stats c ()) in
    let h = Result.get_ok (Service.Client.health c ()) in
    Service.Client.close c;
    (s, h)
  in
  let s0, h0 = stats () in
  (* The closed loop: [connections] callers, each sending its next
     request only after the previous reply.  In a traced run every other
     deck also records a span per request at the caller, so tracing
     costs the same work on both sides of the comparison. *)
  let t_loop = now () in
  let next = Atomic.make 0 in
  let caller k () =
    let client = Service.Client.create ~seed:((seed * 31) + k) address in
    let rec go acc rtt_spans busy =
      let i = Atomic.fetch_and_add next 1 in
      if i >= total then (acc, rtt_spans, busy)
      else begin
        let r = requests.(i) in
        let traced = traced_run && i / deck_size mod 2 = 1 in
        let t = now () in
        let reply = try send client r with Util.Diagnostics.Failed d -> Error d in
        let t' = now () in
        let rtt_spans =
          if traced then
            { id = 0; parent = 0; name = "service.rtt." ^ r.label; t0 = t; t1 = t';
              attrs = [ ("request", Json.Int i); ("caller", Json.Int k) ] }
            :: rtt_spans
          else rtt_spans
        in
        go ((i, t' -. t, traced, Result.to_option reply) :: acc) rtt_spans (busy +. t' -. t)
      end
    in
    let samples, rtt_spans, busy = go [] [] 0.0 in
    let retries = Service.Client.retries client in
    Service.Client.close client;
    (samples, rtt_spans, busy, retries)
  in
  let results = List.map Domain.join (List.init connections (fun k -> Domain.spawn (caller k))) in
  let wall = now () -. t_loop in
  List.iter
    (fun (_, rtt_spans, _, _) ->
      List.iter
        (fun sp ->
          incr next_id;
          spans := { sp with id = !next_id } :: !spans)
        (List.rev rtt_spans))
    results;
  let s1, h1 = stats () in
  let rss = match !server with Some pid -> peak_rss_mb (string_of_int pid) | None -> 0.0 in
  stop_server ~graceful:true;
  Unix.close devnull;
  (* Reference, outside the timed phase: every distinct request of the
     run, in first-seen order, through an in-process session warmed the
     way the server was. *)
  let samples =
    List.concat_map (fun (s, _, _, _) -> s) results
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
  in
  let local = Service.Session.create ~capacity:1024 ~jobs:1 () in
  List.iter
    (fun (name, t) ->
      ignore (handle_local local (single "load" P.Load (base name)));
      ignore (handle_local local (atpg_req name));
      ignore
        (handle_local local
           (single "diagnose" P.Diagnose
              (base name @ [ ("tests", Json.Arr t); ("fails", Json.Arr [ Json.Int 0 ]) ]))))
    tests;
  let expected = Hashtbl.create 256 in
  let local_s = Hashtbl.create 8 in
  List.iter
    (fun (i, _, _, _) ->
      let r = requests.(i) in
      let key = request_key r in
      if not (Hashtbl.mem expected key) then begin
        let t = now () in
        let reply = handle_local local r in
        Hashtbl.replace local_s r.label
          ((now () -. t) :: Option.value ~default:[] (Hashtbl.find_opt local_s r.label));
        Hashtbl.replace expected key reply
      end)
    samples;
  let ops =
    List.map
      (fun (i, dt, _, reply) ->
        let r = requests.(i) in
        let ok =
          match (reply, Hashtbl.find expected (request_key r)) with
          | Some got, Some want -> got = want
          | _ -> false
        in
        op_json r.label dt ok)
      samples
  in
  (* Layer calls for the traced run: each distinct request replayed
     once more, one library call at a time. *)
  if traced_run then begin
    tracing := true;
    let setups = Hashtbl.create 16 and dicts = Hashtbl.create 16 in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (i, _, _, _) ->
        let r = requests.(i) in
        let key = request_key r in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          List.iter
            (fun params ->
              let text = Option.get (Option.bind (List.assoc_opt "netlist" params) Json.to_str) in
              let s = Option.get (Option.bind (List.assoc_opt "seed" params) Json.to_int) in
              let c =
                span "netlist.parse"
                  ~attrs:(fun c -> [ ("gates", Json.Int (Circuit.gate_count c)) ])
                  (fun () -> Bench_format.parse_string ~title:"netlist" text)
              in
              let cfg = config ~seed:s ~jobs:1 Ordering.Dynm0 in
              let skey = (md5 text, s) in
              let setup =
                match Hashtbl.find_opt setups skey with
                | Some setup -> setup
                | None ->
                    let setup = prepare_traced cfg c in
                    Hashtbl.replace setups skey setup;
                    setup
              in
              match r.label with
              | "atpg" | "batch_atpg" -> ignore (run_order_traced setup Ordering.Dynm0)
              | "order" -> ignore (order_traced setup Ordering.Dynm)
              | "diagnose" ->
                  let rows = Option.get (Json.to_list (List.assoc "tests" params)) in
                  let pats =
                    Patterns.of_strings
                      (Array.of_list (List.map (fun j -> Option.get (Json.to_str j)) rows))
                  in
                  let dict =
                    match Hashtbl.find_opt dicts skey with
                    | Some d -> d
                    | None ->
                        let d =
                          span "diagnosis.dict_build" (fun () ->
                              Diagnosis.Dictionary.build ~jobs:1 setup.Pipeline.faults pats)
                        in
                        Hashtbl.replace dicts skey d;
                        d
                  in
                  let fails =
                    List.assoc "fails" params |> Json.to_list |> Option.get
                    |> List.map (fun j -> Option.get (Json.to_int j))
                  in
                  span "diagnosis.rank" (fun () ->
                      let nt = Diagnosis.Dictionary.test_count dict in
                      let session = Diagnosis.Diagnoser.start dict in
                      for test = 0 to nt - 1 do
                        Diagnosis.Diagnoser.observe session ~test
                          (if List.mem test fails then Diagnosis.Diagnoser.Fail
                           else Diagnosis.Diagnoser.Pass)
                      done;
                      ignore (Diagnosis.Diagnoser.ranking ~limit:5 session);
                      ignore
                        (Diagnosis.Diagnoser.exact dict
                           (Diagnosis.Diagnoser.signature_of_fails dict (Array.of_list fails))))
              | _ -> ())
            r.items
        end)
      samples;
    tracing := false
  end;
  let busy = List.fold_left (fun a (_, _, b, _) -> a +. b) 0.0 results in
  let retries = List.fold_left (fun a (_, _, _, r) -> a + r) 0 results in
  let delta k = stat_int s1 k - stat_int s0 k in
  print_result
    [ ("setup_s", floats setup_s); ("wall_s", Json.Float wall); ("ops", Json.Arr ops);
      ("peak_rss_mb", Json.Float rss); ("workers", Json.Int connections);
      ("gates",
       Json.Int
         (List.fold_left
            (fun a (_, text) -> a + Circuit.gate_count (Bench_format.parse_string text))
            0 netlists));
      ("service",
       Json.Obj
         [ ("hits", Json.Int (delta "hits")); ("misses", Json.Int (delta "misses"));
           ("evictions", Json.Int (delta "evictions"));
           ("dict_hits", Json.Int (delta "dict_hits"));
           ("dict_misses", Json.Int (delta "dict_misses"));
           ("shed", Json.Int (stat_int h1 "shed" - stat_int h0 "shed"));
           ("retries", Json.Int retries) ]);
      ("busy_s", Json.Float busy);
      ("rtt",
       Json.Arr
         (List.map
            (fun (i, dt, traced, _) ->
              Json.Obj
                [ ("label", Json.Str requests.(i).label); ("s", Json.Float dt);
                  ("traced", Json.Bool traced) ])
            samples));
      ("local", Json.Obj (Hashtbl.fold (fun l xs acc -> (l, floats xs) :: acc) local_s []));
      ("digests",
       Json.Obj
         (Hashtbl.fold
            (fun key reply acc ->
              (md5 key, Json.Str (md5 (Option.value ~default:"" reply))) :: acc)
            expected []
         |> List.sort compare)) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      parse_argv rest;
      let files = !positional in
      match cmd with
      | "parse" -> cmd_parse files
      | "reference" -> cmd_reference files
      | "cold-op" -> cmd_cold_op (List.hd files)
      | "paper-orders" -> cmd_paper_orders files
      | "order-large" -> cmd_order_large (List.hd files)
      | "service-mix" -> cmd_service_mix files
      | _ ->
          prerr_endline ("probe: unknown subcommand " ^ cmd);
          exit 2)
  | _ ->
      prerr_endline "usage: probe SUBCOMMAND [--key value ...] FILE...";
      exit 2
