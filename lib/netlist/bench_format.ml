module D = Util.Diagnostics

type stmt =
  | S_input of string
  | S_output of string
  | S_gate of string * Gate.kind * string list

let is_space c = c = ' ' || c = '\t' || c = '\r'

let strip s =
  let n = String.length s in
  let a = ref 0 and b = ref (n - 1) in
  while !a < n && is_space s.[!a] do
    incr a
  done;
  while !b >= !a && is_space s.[!b] do
    decr b
  done;
  String.sub s !a (!b - !a + 1)

(* Recoverable mode records the diagnostic and raises [Skip] to abandon
   just the offending statement; strict mode raises [D.Failed]. *)
exception Skip

type ctx = { file : string option; recover : bool; mutable diags : D.t list }

let report ctx ~line code fmt =
  Printf.ksprintf
    (fun m ->
      let d = D.error ~loc:{ file = ctx.file; line } code "%s" m in
      if ctx.recover then begin
        ctx.diags <- d :: ctx.diags;
        raise Skip
      end
      else raise (D.Failed d))
    fmt

(* "NAME ( a , b )" -> (NAME, [a; b]). *)
let parse_call ctx line s =
  match String.index_opt s '(' with
  | None -> report ctx ~line D.Syntax "expected '(' in %S" s
  | Some lp ->
      if String.length s = 0 || s.[String.length s - 1] <> ')' then
        report ctx ~line D.Syntax "expected ')' at end of %S" s;
      let fn = strip (String.sub s 0 lp) in
      let inner = String.sub s (lp + 1) (String.length s - lp - 2) in
      let args =
        String.split_on_char ',' inner |> List.map strip |> List.filter (fun a -> a <> "")
      in
      (fn, args)

let parse_line ctx lineno raw =
  let s =
    match String.index_opt raw '#' with
    | Some i -> strip (String.sub raw 0 i)
    | None -> strip raw
  in
  if s = "" then None
  else
    match String.index_opt s '=' with
    | None -> (
        let fn, args = parse_call ctx lineno s in
        match (String.uppercase_ascii fn, args) with
        | "INPUT", [ a ] -> Some (S_input a)
        | "OUTPUT", [ a ] -> Some (S_output a)
        | ("INPUT" | "OUTPUT"), _ ->
            report ctx ~line:lineno D.Bad_arity "INPUT/OUTPUT take exactly one signal"
        | _ -> report ctx ~line:lineno D.Syntax "unknown declaration %S" fn)
    | Some eq ->
        let lhs = strip (String.sub s 0 eq) in
        let rhs = strip (String.sub s (eq + 1) (String.length s - eq - 1)) in
        if lhs = "" then report ctx ~line:lineno D.Syntax "missing signal name before '='";
        let fn, args = parse_call ctx lineno rhs in
        let k =
          match Gate.of_string fn with
          | Some k -> k
          | None -> report ctx ~line:lineno D.Unknown_gate "unknown gate type %S" fn
        in
        (match k with
        | Gate.Input ->
            report ctx ~line:lineno D.Syntax "INPUT cannot appear on the right of '='"
        | _ -> ());
        if not (Gate.arity_ok k (List.length args)) then
          report ctx ~line:lineno D.Bad_arity "%s gate %S has %d operands" (Gate.to_string k)
            lhs (List.length args);
        Some (S_gate (lhs, k, args))

let parse_core ~recover ?file ~title text =
  let ctx = { file; recover; diags = [] } in
  (* In recoverable mode a post-parse repair notes the problem and
     keeps going instead of skipping a statement. *)
  let note ~line code fmt =
    Printf.ksprintf
      (fun m ->
        let d = D.error ~loc:{ file = ctx.file; line } code "%s" m in
        if recover then ctx.diags <- d :: ctx.diags else raise (D.Failed d))
      fmt
  in
  let stmts = ref [] in
  List.iteri
    (fun i raw ->
      match parse_line ctx (i + 1) raw with
      | Some s -> stmts := (i + 1, s) :: !stmts
      | None -> ()
      | exception Skip -> ())
    (String.split_on_char '\n' text);
  let stmts = List.rev !stmts in
  if stmts = [] then begin
    note ~line:0 D.Empty_input "netlist holds no statements";
    (None, List.rev ctx.diags)
  end
  else begin
    let defs : (string, Gate.kind * string list * int) Hashtbl.t = Hashtbl.create 64 in
    let def_order = ref [] in
    let inputs = ref [] and outputs = ref [] in
    (* Returns false when the name was already taken (recoverable mode
       keeps the first definition). *)
    let define line name v =
      match Hashtbl.find_opt defs name with
      | Some _ ->
          note ~line D.Duplicate_def "signal %S defined twice" name;
          false
      | None ->
          Hashtbl.add defs name v;
          def_order := name :: !def_order;
          true
    in
    List.iter
      (fun (line, stmt) ->
        match stmt with
        | S_input a -> if define line a (Gate.Input, [], line) then inputs := a :: !inputs
        | S_output a -> outputs := (line, a) :: !outputs
        | S_gate (lhs, k, args) -> ignore (define line lhs (k, args, line)))
      stmts;
    let inputs = List.rev !inputs and outputs = List.rev !outputs in
    let def_order = ref (List.rev !def_order) in
    (* Check all references resolve.  Recoverable mode drops gates with
       dangling fanins, to a fixpoint: dropping a gate may orphan its
       own readers. *)
    let changed = ref true in
    while !changed do
      changed := false;
      let keep =
        List.filter
          (fun name ->
            let _, args, line = Hashtbl.find defs name in
            let dangling = List.filter (fun a -> not (Hashtbl.mem defs a)) args in
            match dangling with
            | [] -> true
            | a :: _ ->
                note ~line D.Undefined_ref "signal %S is used but never defined" a;
                Hashtbl.remove defs name;
                changed := true;
                false)
          !def_order
      in
      def_order := keep
    done;
    let def_order = !def_order in
    let inputs = List.filter (Hashtbl.mem defs) inputs in
    (* Topological order over combinational dependencies; DFFs are
       sources (their fanin edge crosses a clock boundary). *)
    let comb_deps name =
      match Hashtbl.find defs name with Gate.Dff, _, _ -> [] | _, args, _ -> args
    in
    let indeg = Hashtbl.create 64 in
    let succs = Hashtbl.create 64 in
    List.iter
      (fun name ->
        Hashtbl.replace indeg name (List.length (comb_deps name));
        List.iter
          (fun d ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt succs d) in
            Hashtbl.replace succs d (name :: cur))
          (comb_deps name))
      def_order;
    (* Emit ready definitions in file order (min file index first) so a
       file already in dependency order — in particular our own
       [to_string] output — round-trips with identical node ids. *)
    let file_pos = Hashtbl.create 64 in
    List.iteri (fun i n -> Hashtbl.replace file_pos n i) def_order;
    let name_at = Array.of_list def_order in
    let ready = Util.Heap.create () in
    let push n =
      let pos = Hashtbl.find file_pos n in
      Util.Heap.push ready ~key:(-pos) pos
    in
    List.iter (fun n -> if Hashtbl.find indeg n = 0 then push n) def_order;
    let order = ref [] in
    let emitted = ref 0 in
    let rec drain () =
      match Util.Heap.pop ready with
      | None -> ()
      | Some (_, pos) ->
          let n = name_at.(pos) in
          order := n :: !order;
          incr emitted;
          List.iter
            (fun s ->
              let d = Hashtbl.find indeg s - 1 in
              Hashtbl.replace indeg s d;
              if d = 0 then push s)
            (Option.value ~default:[] (Hashtbl.find_opt succs n));
          drain ()
    in
    drain ();
    (* Names never emitted sit on or downstream of a cycle; recoverable
       mode drops them. *)
    let order = List.rev !order in
    if !emitted <> List.length def_order then begin
      let ok = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace ok n ()) order;
      List.iter
        (fun n ->
          if not (Hashtbl.mem ok n) then begin
            let _, _, line = Hashtbl.find defs n in
            note ~line D.Combinational_cycle "signal %S lies on a combinational cycle" n;
            Hashtbl.remove defs n
          end)
        def_order
    end;
    (* Build: inputs first (declaration order), then topological order. *)
    let b = Circuit.Builder.create ~title () in
    let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace ids n (Circuit.Builder.input b n)) inputs;
    let dff_defs = ref [] in
    List.iter
      (fun name ->
        if not (Hashtbl.mem ids name) then begin
          let k, args, line = Hashtbl.find defs name in
          match k with
          | Gate.Input -> ()
          | Gate.Dff ->
              Hashtbl.replace ids name (Circuit.Builder.dff b name);
              dff_defs := (name, args, line) :: !dff_defs
          | _ ->
              let fanin_ids = List.map (fun a -> Hashtbl.find ids a) args in
              Hashtbl.replace ids name (Circuit.Builder.gate b k name fanin_ids)
        end)
      order;
    List.iter
      (fun (name, args, line) ->
        match args with
        | [ a ] -> (
            match Hashtbl.find_opt ids a with
            | Some fid -> Circuit.Builder.connect_dff b (Hashtbl.find ids name) ~fanin:fid
            | None ->
                note ~line D.Undefined_ref "DFF %S input %S was dropped as unresolvable" name a)
        | _ -> note ~line D.Bad_arity "DFF %S must have exactly one operand" name)
      !dff_defs;
    let outputs =
      List.filter
        (fun (line, o) ->
          if Hashtbl.mem ids o then true
          else begin
            note ~line D.Undefined_ref "OUTPUT %S is never defined" o;
            false
          end)
        outputs
    in
    if outputs = [] then begin
      note ~line:0 D.No_outputs "netlist declares no OUTPUT";
      (None, List.rev ctx.diags)
    end
    else begin
      List.iter (fun (_, o) -> Circuit.Builder.mark_output b (Hashtbl.find ids o)) outputs;
      (Some (Circuit.Builder.finish b), List.rev ctx.diags)
    end
  end

let parse_string ?file ?(title = "bench") text =
  match parse_core ~recover:false ?file ~title text with
  | Some c, _ -> c
  | None, _ -> assert false (* strict mode raised before returning None *)

let parse_string_recover ?file ?(title = "bench") text =
  parse_core ~recover:true ?file ~title text

let read_whole_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> D.fail ~loc:{ file = Some path; line = 0 } D.Io_error "%s" msg
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse_file path =
  let text = read_whole_file path in
  let title = Filename.remove_extension (Filename.basename path) in
  parse_string ~file:path ~title text

let parse_file_recover path =
  let text = read_whole_file path in
  let title = Filename.remove_extension (Filename.basename path) in
  parse_string_recover ~file:path ~title text

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.title c));
  Array.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.name c i)))
    (Circuit.inputs c);
  Array.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.name c i)))
    (Circuit.outputs c);
  (* Emit definitions in id order — valid because forward references are
     allowed by the format. *)
  Circuit.iter_nodes c (fun i ->
      match Circuit.kind c i with
      | Gate.Input -> ()
      | k ->
          let args =
            Circuit.fanins c i |> Array.to_list
            |> List.map (Circuit.name c)
            |> String.concat ", "
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n" (Circuit.name c i) (Gate.to_string k) args));
  Buffer.contents buf

let write_file path c =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (to_string c))
