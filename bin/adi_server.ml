(* adi-server: resident ADI/ATPG service.

   Holds the content-addressed artifact cache warm across requests and
   serves the length-prefixed JSON protocol (see docs/service.md) to
   concurrent clients over a Unix-domain or TCP socket. *)

open Cmdliner
module Trace = Util.Trace

let guard f =
  try f () with
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "adi-server: %s\n" msg;
      exit 1
  | Util.Diagnostics.Failed d ->
      Printf.eprintf "adi-server: %s\n" (Util.Diagnostics.to_string d);
      exit 2
  | Sys_error msg ->
      Printf.eprintf "adi-server: %s\n" msg;
      exit 1

let address_term =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on a TCP socket.")
  in
  let combine socket tcp =
    match (socket, tcp) with
    | Some path, None -> `Ok (Service.Server.Unix_socket path)
    | None, Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
            let host = String.sub spec 0 i in
            let port = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt port with
            | Some port when port > 0 && port < 65536 -> `Ok (Service.Server.Tcp (host, port))
            | _ -> `Error (false, "--tcp expects HOST:PORT with a valid port"))
        | None -> `Error (false, "--tcp expects HOST:PORT"))
    | Some _, Some _ -> `Error (false, "pass either --socket or --tcp, not both")
    | None, None -> `Error (false, "an address is required: --socket PATH or --tcp HOST:PORT")
  in
  Term.(ret (const combine $ socket $ tcp))

let int_opt ~names ~docv ~doc ~default =
  Arg.(value & opt int default & info names ~docv ~doc)

let capacity_arg =
  int_opt ~names:[ "capacity" ] ~docv:"N" ~default:8
    ~doc:"Resident cache entries (0 disables caching)."

let workers_arg =
  int_opt ~names:[ "workers" ] ~docv:"N" ~default:4 ~doc:"Concurrent accept-serve lanes."

let backlog_arg =
  int_opt ~names:[ "backlog" ] ~docv:"N" ~default:16
    ~doc:"Kernel accept-queue bound for waiting connections."

let jobs_arg =
  int_opt ~names:[ "j"; "jobs" ] ~docv:"JOBS" ~default:1
    ~doc:"Default detection-set simulation lanes per request (requests may override)."

let spill_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill" ] ~docv:"DIR"
        ~doc:"Spill evicted cache entries to $(docv) and reload them on demand.")

let spill_shared_arg =
  Arg.(
    value & flag
    & info [ "spill-shared" ]
        ~doc:
          "Treat the --spill directory as a fleet-shared second-level store: write fresh \
           artifacts through to disk immediately so sibling workers find them.")

let request_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-budget" ] ~docv:"S"
        ~doc:"Default per-request wall-clock budget in seconds (requests may override).")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Admit at most $(docv) requests into handlers at once; the rest wait briefly and \
           are then shed with a typed E-overload reply (default: the worker count).")

let queue_wait_arg =
  Arg.(
    value & opt float 0.1
    & info [ "queue-wait" ] ~docv:"S"
        ~doc:"How long a request may wait for an in-flight slot before being shed.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the metrics tables when the server drains.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream request spans and cache counters to $(docv) as JSON lines.")

let run address capacity workers backlog jobs spill spill_shared request_budget max_inflight
    queue_wait metrics trace =
  guard @@ fun () ->
  Util.Failpoint.install_from_env ();
  let cfg =
    Run_config.(default |> with_metrics metrics |> with_trace trace)
  in
  let (), report =
    Harness.with_observability cfg @@ fun () ->
    let tracer = Trace.current () in
    (* Trace header: version and shape of this server instance. *)
    Trace.instant tracer "service.start"
      ~attrs:
        [ ("version", Trace.Str Util.Version.version);
          ("address", Trace.Str (Service.Server.address_to_string address));
          ("workers", Trace.Int workers); ("capacity", Trace.Int capacity);
          ("jobs", Trace.Int jobs) ];
    let session =
      Service.Session.create ~capacity ?spill_dir:spill ~shared_spill:spill_shared ~jobs
        ?request_budget_s:request_budget ~tracer ()
    in
    let server =
      Service.Server.create ~workers ~backlog ?max_inflight ~queue_wait_s:queue_wait
        (Service.Session.backend session) address
    in
    Service.Server.serve server ~on_ready:(fun () ->
        Printf.printf "adi-server: v%s listening on %s (%d workers, capacity %d)\n"
          Util.Version.version
          (Service.Server.address_to_string address)
          workers capacity;
        flush stdout);
    Trace.instant tracer "service.stop"
      ~attrs:[ ("requests", Trace.Int (Service.Session.requests session)) ];
    Printf.printf "adi-server: drained after %d requests\n"
      (Service.Session.requests session)
  in
  Option.iter print_string report

let cmd =
  let info =
    Cmd.info "adi-server" ~version:Util.Version.version
      ~doc:"Resident ADI/ATPG service with a content-addressed artifact cache"
  in
  Cmd.v info
    Term.(
      const run $ address_term $ capacity_arg $ workers_arg $ backlog_arg $ jobs_arg
      $ spill_arg $ spill_shared_arg $ request_budget_arg $ max_inflight_arg $ queue_wait_arg
      $ metrics_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
