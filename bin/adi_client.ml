(* adi-client: command-line client for adi-server.

   Builds one JSON request per invocation and sends it through the
   resilient {!Service.Client}: transient transport failures (refused
   connections, corrupt frames, overload sheds) are retried with
   jittered exponential backoff up to [--retries] extra attempts,
   all under the [--timeout] overall deadline.  The result object is
   printed on stdout; server-side error replies map to a nonzero exit
   with the same typed [E-...] code a local run would report.  Exit
   codes: 1 usage, 2 typed failure, 4 deadline expiry (a local
   timeout or a server [E-budget] reply).  The client never hangs and
   never dies silently. *)

open Cmdliner
module Json = Util.Json
module Diagnostics = Util.Diagnostics

let budget_code = Diagnostics.code_string Diagnostics.Budget_expired

let guard f =
  try f () with
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "adi-client: %s\n" msg;
      exit 1
  | Util.Diagnostics.Failed d ->
      Printf.eprintf "adi-client: %s [%s]\n" d.Diagnostics.message
        (Diagnostics.code_string d.Diagnostics.code);
      (* Deadline expiry is distinguishable from a protocol failure so
         callers can tell "slow" from "broken". *)
      exit (if d.Diagnostics.code = Diagnostics.Budget_expired then 4 else 2)
  | Sys_error msg ->
      Printf.eprintf "adi-client: %s\n" msg;
      exit 1

(* --- connection --------------------------------------------------- *)

let with_client target ~timeout_s ~retries f =
  let policy =
    { Service.Client.default_policy with
      Util.Retry.max_attempts = retries + 1;
      overall_budget_s = Some timeout_s }
  in
  let client = Service.Client.create ~policy target in
  Fun.protect ~finally:(fun () -> Service.Client.close client) (fun () -> f client)

let report_error (e : Service.Protocol.error) =
  Printf.eprintf "adi-client: %s [%s]\n" e.Service.Protocol.message e.Service.Protocol.code;
  exit (if e.Service.Protocol.code = budget_code then 4 else 2)

let print_payload = function
  | Ok result -> print_endline (Json.to_string result)
  | Error e -> report_error e

let request target ~timeout_s ~retries op params =
  with_client target ~timeout_s ~retries (fun client ->
      print_payload (Service.Client.request client op params))

(* --- arguments ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to a Unix-domain socket at $(docv).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP.")

let parse_target socket tcp =
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
  | None, None -> `Error (false, "a server address is required: --socket PATH or --tcp HOST:PORT")

let target_term = Term.(ret (const parse_target $ socket_arg $ tcp_arg))

let timeout_arg =
  Arg.(
    value & opt float 60.0
    & info [ "timeout" ] ~docv:"S"
        ~doc:"Overall deadline in seconds across all attempts; expiry exits with code 4.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a transiently failed request up to $(docv) extra times with jittered \
           exponential backoff.  Pass 0 to fail on the first error.")

let circuit_arg =
  let doc =
    "Circuit: a suite name (syn208..syn13207, c17, lion) or a .bench file path (sent inline)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* A local .bench file is read here and shipped inline, so the server
   never needs to share a file system with its clients. *)
let circuit_params spec =
  if Sys.file_exists spec then begin
    let ic = open_in_bin spec in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    [ ("netlist", Json.Str text) ]
  end
  else [ ("circuit", Json.Str spec) ]

let opt_param ?param name conv arg_conv doc docv =
  let param = Option.value param ~default:name in
  let term = Arg.(value & opt (some arg_conv) None & info [ name ] ~docv ~doc) in
  let pair x = (param, conv x) in
  Term.(const (Option.map pair) $ term)

let config_params_term =
  let int_p name doc docv = opt_param name (fun i -> Json.Int i) Arg.int doc docv in
  let float_p name doc docv = opt_param name (fun f -> Json.Float f) Arg.float doc docv in
  let str_p name doc docv = opt_param name (fun s -> Json.Str s) Arg.string doc docv in
  let gather seed pool tc jobs width kernel order backtracks retries budget =
    List.filter_map Fun.id
      [ seed; pool; tc; jobs; width; kernel; order; backtracks; retries; budget ]
  in
  Term.(
    const gather
    $ int_p "seed" "Random seed (drives U selection and random fill)." "SEED"
    $ int_p "pool" "Candidate-vector pool size for U selection." "N"
    $ float_p "target_coverage" "U-selection coverage target, in (0, 1]." "C"
    $ int_p "jobs" "Fault-simulation domains for this request." "JOBS"
    $ opt_param ~param:"block_width" "block-width" (fun i -> Json.Int i) Arg.int
        "Words per simulation lane: 1, 2, 4 or 8 (the $(b,block_width) request \
         parameter; results are identical for any width)." "W"
    $ str_p "kernel" "Fault-simulation kernel: event or stem." "KERNEL"
    $ str_p "order" "Fault order: orig, incr0, decr, 0decr, dynm, 0dynm." "ORDER"
    $ int_p "backtracks" "PODEM backtrack limit." "B"
    $ opt_param ~param:"retries" "abort-retries" (fun i -> Json.Int i) Arg.int
        "Abort-retry escalation passes (the $(b,retries) request parameter)." "R"
    $ float_p "budget_s" "Per-request wall-clock budget in seconds." "S")

let circuit_cmd name ~doc ~extra_params =
  let run target timeout retries spec params extra =
    guard @@ fun () ->
    request target ~timeout_s:timeout ~retries name (circuit_params spec @ params @ extra)
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const run $ target_term $ timeout_arg $ retries_arg $ circuit_arg $ config_params_term
      $ extra_params)

let limit_term =
  let term =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Truncate the reported permutation to $(docv) faults.")
  in
  Term.(
    const (fun v -> match v with Some n -> [ ("limit", Json.Int n) ] | None -> []) $ term)

let no_extra = Term.const []

let load_cmd = circuit_cmd "load" ~doc:"Parse, collapse, select U and compute ADI (warms the cache)" ~extra_params:no_extra
let adi_cmd = circuit_cmd "adi" ~doc:"ADI summary (ADImin/ADImax/ratio)" ~extra_params:no_extra
let order_cmd = circuit_cmd "order" ~doc:"Compute a fault ordering" ~extra_params:limit_term
let atpg_cmd = circuit_cmd "atpg" ~doc:"Generate a test set" ~extra_params:no_extra

(* Diagnosis: ship the observed failure log (failing test indices, an
   optional applied-prefix length, optional full per-output responses)
   and print the ranked candidates. *)
let diagnose_params =
  let fails_term =
    let term =
      Arg.(
        value
        & opt (some string) None
        & info [ "fails" ] ~docv:"I,J,…"
            ~doc:"Comma-separated indices of the tests the device failed.")
    in
    let parse = function
      | None -> []
      | Some spec ->
          let items =
            List.map
              (fun s ->
                match int_of_string_opt (String.trim s) with
                | Some i -> Json.Int i
                | None -> invalid_arg (Printf.sprintf "--fails: %S is not a test index" s))
              (String.split_on_char ',' spec)
          in
          [ ("fails", Json.Arr items) ]
    in
    Term.(const parse $ term)
  in
  let applied_term =
    let term =
      Arg.(
        value
        & opt (some int) None
        & info [ "applied" ] ~docv:"N"
            ~doc:
              "Number of tests actually applied (a prefix of the dictionary's test set); \
               omit when the full set was applied.")
    in
    Term.(
      const (fun v -> match v with Some n -> [ ("applied", Json.Int n) ] | None -> []) $ term)
  in
  let response_term =
    let term =
      Arg.(
        value & opt_all string []
        & info [ "response" ] ~docv:"TEST:OUTPUTS"
            ~doc:
              "A full observed response, e.g. $(b,--response 3:01101): the device's output \
               bits on test 3.  Repeatable; sharper than a pass/fail verdict.")
    in
    let parse specs =
      match specs with
      | [] -> []
      | specs ->
          let item spec =
            match String.index_opt spec ':' with
            | Some i ->
                let test = String.sub spec 0 i in
                let outs = String.sub spec (i + 1) (String.length spec - i - 1) in
                (match int_of_string_opt test with
                | Some t ->
                    Json.Obj [ ("test", Json.Int t); ("outputs", Json.Str outs) ]
                | None ->
                    invalid_arg (Printf.sprintf "--response: %S is not TEST:OUTPUTS" spec))
            | None -> invalid_arg (Printf.sprintf "--response: %S is not TEST:OUTPUTS" spec)
          in
          [ ("responses", Json.Arr (List.map item specs)) ]
    in
    Term.(const parse $ term)
  in
  let candidates_term =
    let term =
      Arg.(
        value
        & opt (some int) None
        & info [ "candidates" ] ~docv:"N"
            ~doc:"Report the top $(docv) ranked candidates (server default 10).")
    in
    Term.(
      const (fun v -> match v with Some n -> [ ("limit", Json.Int n) ] | None -> []) $ term)
  in
  Term.(
    const (fun a b c d -> a @ b @ c @ d)
    $ fails_term $ applied_term $ response_term $ candidates_term)

let diagnose_cmd =
  circuit_cmd "diagnose"
    ~doc:
      "Diagnose an observed failure log: rank dictionary candidates for the failing tests"
    ~extra_params:diagnose_params

let plain_cmd name ~doc ~params_term =
  let run target timeout retries params =
    guard @@ fun () -> request target ~timeout_s:timeout ~retries name params
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(const run $ target_term $ timeout_arg $ retries_arg $ params_term)

let stats_cmd = plain_cmd "stats" ~doc:"Server statistics (version, cache hit/miss counters)" ~params_term:(Term.const [])

let health_cmd =
  plain_cmd "health"
    ~doc:"Liveness probe: version, uptime, in-flight, shed and restart counters"
    ~params_term:(Term.const [])

let evict_params =
  let term =
    Arg.(
      value
      & opt (some string) None
      & info [ "key" ] ~docv:"KEY" ~doc:"Evict one cache key; omit to clear the whole cache.")
  in
  Term.(
    const (fun v -> match v with Some k -> [ ("key", Json.Str k) ] | None -> []) $ term)

let evict_cmd = plain_cmd "evict" ~doc:"Evict cache entries" ~params_term:evict_params
let shutdown_cmd = plain_cmd "shutdown" ~doc:"Drain in-flight requests and stop the server" ~params_term:(Term.const [])

let hello_cmd =
  let run target timeout retries =
    guard @@ fun () ->
    with_client target ~timeout_s:timeout ~retries (fun client ->
        match Service.Client.hello client () with
        | Ok version ->
            print_endline (Json.to_string (Json.Obj [ ("version", Json.Int version) ]))
        | Error d -> raise (Diagnostics.Failed d))
  in
  Cmd.v
    (Cmd.info "hello" ~doc:"Negotiate a protocol version and print it")
    Term.(const run $ target_term $ timeout_arg $ retries_arg)

(* One round-trip, many circuits: each CIRCUIT becomes one batch item
   carrying the shared config parameters.  Per-item outcomes come back
   in request order, byte-identical to the equivalent single ops. *)
let batch_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP" ~doc:"Batched op: $(b,adi), $(b,order), $(b,atpg) or $(b,diagnose).")
  in
  let circuits_arg =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"CIRCUIT"
          ~doc:"Circuits (suite names or .bench file paths), one batch item each.")
  in
  let run target timeout retries op specs params =
    guard @@ fun () ->
    let op =
      match Service.Protocol.op_of_name op with
      | Some op when Service.Protocol.batchable op -> op
      | _ ->
          invalid_arg
            (Printf.sprintf "batch: op %S has no batch form (use adi, order, atpg or diagnose)" op)
    in
    let items = List.map (fun spec -> circuit_params spec @ params) specs in
    with_client target ~timeout_s:timeout ~retries (fun client ->
        match Service.Client.batch client op items with
        | Error d -> raise (Diagnostics.Failed d)
        | Ok replies ->
            let item = function
              | Ok result -> Json.Obj [ ("ok", Json.Bool true); ("result", result) ]
              | Error (e : Service.Protocol.error) ->
                  Json.Obj
                    [ ("ok", Json.Bool false);
                      ("error",
                       Json.Obj
                         [ ("code", Json.Str e.Service.Protocol.code);
                           ("message", Json.Str e.Service.Protocol.message) ]) ]
            in
            print_endline
              (Json.to_string (Json.Obj [ ("results", Json.Arr (List.map item replies)) ])))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run one op over many circuits in a single protocol v2 batch request")
    Term.(
      const run $ target_term $ timeout_arg $ retries_arg $ op_arg $ circuits_arg
      $ config_params_term)

(* The pre-v2 `raw` subcommand survives only as `--raw` on the group
   default — deprecated protocol-debugging surface, not an op. *)
let raw_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "raw" ] ~docv:"JSON"
        ~doc:
          "Send $(docv) verbatim as one request payload and print the reply payload \
           (deprecated protocol-debugging surface; use the typed subcommands).")

let default_term =
  let run socket tcp timeout retries raw =
    match raw with
    | None -> `Help (`Pager, None)
    | Some payload -> (
        match parse_target socket tcp with
        | `Error _ as e -> e
        | `Ok target ->
            `Ok
              (guard @@ fun () ->
               with_client target ~timeout_s:timeout ~retries (fun client ->
                   let reply = Service.Client.raw client payload in
                   match
                     Result.bind (Json.of_string reply) Service.Protocol.response_of_json
                   with
                   | Error msg -> Diagnostics.fail Diagnostics.Protocol "unreadable reply: %s" msg
                   | Ok { Service.Protocol.payload; _ } -> (
                       match payload with
                       | Ok (Service.Protocol.Result result) ->
                           print_endline (Json.to_string result)
                       | Ok reply ->
                           print_endline
                             (Json.to_string
                                (Service.Protocol.response_to_json
                                   { Service.Protocol.id = 0; payload = Ok reply }))
                       | Error e -> report_error e))))
  in
  Term.(ret (const run $ socket_arg $ tcp_arg $ timeout_arg $ retries_arg $ raw_arg))

let cmd =
  let info =
    Cmd.info "adi-client" ~version:Util.Version.version
      ~doc:"Client for the resident ADI/ATPG service (adi-server)"
  in
  Cmd.group ~default:default_term info
    [ load_cmd; adi_cmd; order_cmd; atpg_cmd; diagnose_cmd; batch_cmd; stats_cmd; health_cmd; evict_cmd;
      shutdown_cmd; hello_cmd ]

let () =
  (try Util.Failpoint.install_from_env ()
   with Util.Diagnostics.Failed d ->
     Printf.eprintf "adi-client: %s [%s]\n" d.Util.Diagnostics.message
       (Util.Diagnostics.code_string d.Util.Diagnostics.code);
     exit 1);
  exit (Cmd.eval cmd)
