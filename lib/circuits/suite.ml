type entry = {
  name : string;
  paper_name : string;
  pis : int;
  pos : int;
  gates : int;
  seed : int;
  big : bool;
}

(* Input counts follow Table 4 of the paper; gate counts are the
   published ISCAS-89 combinational-core sizes, used as calibration
   targets by [regenerate]. *)
let entries =
  [
    { name = "syn208"; paper_name = "irs208"; pis = 19; pos = 10; gates = 112; seed = 208; big = false };
    { name = "syn298"; paper_name = "irs298"; pis = 17; pos = 20; gates = 119; seed = 298; big = false };
    { name = "syn344"; paper_name = "irs344"; pis = 24; pos = 26; gates = 160; seed = 344; big = false };
    { name = "syn382"; paper_name = "irs382"; pis = 24; pos = 27; gates = 158; seed = 382; big = false };
    { name = "syn400"; paper_name = "irs400"; pis = 24; pos = 27; gates = 162; seed = 400; big = false };
    { name = "syn420"; paper_name = "irs420"; pis = 35; pos = 18; gates = 218; seed = 420; big = false };
    { name = "syn510"; paper_name = "irs510"; pis = 25; pos = 13; gates = 211; seed = 510; big = false };
    { name = "syn526"; paper_name = "irs526"; pis = 24; pos = 27; gates = 193; seed = 526; big = false };
    { name = "syn641"; paper_name = "irs641"; pis = 54; pos = 42; gates = 379; seed = 641; big = false };
    { name = "syn820"; paper_name = "irs820"; pis = 23; pos = 24; gates = 289; seed = 820; big = false };
    { name = "syn953"; paper_name = "irs953"; pis = 45; pos = 52; gates = 395; seed = 953; big = false };
    { name = "syn1196"; paper_name = "irs1196"; pis = 32; pos = 32; gates = 529; seed = 1196; big = false };
    { name = "syn5378"; paper_name = "irs5378"; pis = 214; pos = 228; gates = 2779; seed = 5378; big = true };
    { name = "syn13207"; paper_name = "irs13207"; pis = 699; pos = 790; gates = 7951; seed = 13207; big = true };
  ]

let small = List.filter (fun e -> not e.big) entries
let find name = List.find_opt (fun e -> e.name = name) entries
let names () = List.map (fun e -> e.name) entries

let netlist e = List.assoc e.name Suite_netlists.all
let build e = Bench_format.parse_string ~file:(e.name ^ ".bench") ~title:e.name (netlist e)

(* Suite circuits are produced like the paper's "irredundant versions":
   generate, remove redundancy, and re-attach any input the removal
   orphaned.  Redundancy removal shrinks random logic by an unstable
   factor, so the generator size is calibrated by iteration until the
   result lands near the published gate count.  Every step is seeded,
   so the outcome is identical in every run: the embedded netlists
   are this function's output. *)
let regenerate e =
  (* Gentler settings on the two large circuits keep suite
     construction fast: a low backtrack limit still proves the bulk
     of the redundancies, and a handful of residual ones matches
     real "irredundant" benchmark releases closely enough. *)
  let max_rounds = if e.big then 3 else 24 in
  let backtrack_limit = if e.big then 64 else 4096 in
  let random_vectors = if e.big then 8192 else 2048 in
  let attempts = if e.big then 2 else 4 in
  let cook gates =
    let raw =
      Generate.random ~seed:e.seed ~name:e.name
        (Generate.profile ~outputs:e.pos ~pis:e.pis ~gates ())
    in
    fst (Irredundant.remove ~max_rounds ~backtrack_limit ~random_vectors raw)
  in
  let rec calibrate gates attempt =
    let c = cook gates in
    let got = Circuit.gate_count c in
    if attempt >= attempts || float_of_int got >= 0.85 *. float_of_int e.gates then c
    else begin
      let gates' = max (gates + 8) (gates * e.gates / max 1 got) in
      calibrate gates' (attempt + 1)
    end
  in
  let c = calibrate e.gates 1 in
  (* Re-attach orphaned inputs and clean up once more. *)
  let rng = Util.Rng.create (e.seed lxor 0x5eed) in
  let c = Generate.revive_dead_inputs rng c in
  let c, _ =
    Irredundant.remove ~max_rounds:(min 4 max_rounds) ~backtrack_limit ~random_vectors c
  in
  Generate.revive_dead_inputs rng c

let build_by_name name =
  match find name with
  | Some e -> build e
  | None -> (
      match name with
      | "c17" -> Library.c17 ()
      | "lion" -> Kiss.to_combinational (Kiss.lion ())
      | _ -> invalid_arg (Printf.sprintf "Suite.build_by_name: unknown circuit %S" name))
