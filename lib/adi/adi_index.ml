module Bitvec = Util.Bitvec
module Rng = Util.Rng

type t = {
  fault_list : Fault_list.t;
  patterns : Patterns.t;
  dsets : Bitvec.t array;
  ndet : int array;
  adi : int array;
}

type estimator = Minimum | Average

let reduce estimator ndet d =
  match estimator with
  | Minimum ->
      let m = ref max_int in
      Bitvec.iter_set d (fun u -> if ndet.(u) < !m then m := ndet.(u));
      if !m = max_int then 0 else !m
  | Average ->
      let sum = ref 0 and cnt = ref 0 in
      Bitvec.iter_set d (fun u ->
          sum := !sum + ndet.(u);
          incr cnt);
      if !cnt = 0 then 0 else max 1 (!sum / !cnt)

let of_dsets estimator fault_list patterns dsets =
  let ndet = Faultsim.ndet dsets patterns in
  let adi = Array.map (reduce estimator ndet) dsets in
  let tr = Util.Trace.current () in
  if Util.Trace.enabled tr then begin
    let h = Util.Trace.histogram tr "adi.value" in
    let det = ref 0 in
    Array.iter
      (fun a ->
        if a > 0 then begin
          incr det;
          Util.Metrics.observe h (float_of_int a)
        end)
      adi;
    Util.Metrics.set (Util.Trace.counter tr "adi.detected_by_u") !det
  end;
  { fault_list; patterns; dsets; ndet; adi }

let compute ?(estimator = Minimum) ?(jobs = 1) ?kernel:_ ?block_width:_ fault_list patterns =
  of_dsets estimator fault_list patterns (Faultsim.detection_sets ~jobs fault_list patterns)

let compute_n_detection ?(estimator = Minimum) ~n fault_list patterns =
  of_dsets estimator fault_list patterns (Faultsim.detection_sets_capped fault_list patterns ~n)

let detected t fi = t.adi.(fi) > 0

let min_max t =
  Array.fold_left
    (fun acc a ->
      if a = 0 then acc
      else
        match acc with
        | None -> Some (a, a)
        | Some (lo, hi) -> Some (min lo a, max hi a))
    None t.adi

let ratio t =
  match min_max t with
  | None -> None
  | Some (lo, hi) -> Some (float_of_int hi /. float_of_int lo)

let coverage_of_u t =
  let det = Array.fold_left (fun acc a -> if a > 0 then acc + 1 else acc) 0 t.adi in
  float_of_int det /. float_of_int (Fault_list.count t.fault_list)

type u_selection = { u : Patterns.t; pool_detected : int; prefix_detected : int }

let select_u ?(pool = 10_000) ?(target_coverage = 0.9) ?jobs:_ ?kernel:_ ?block_width:_ rng fl =
  let c = Fault_list.circuit fl in
  let n_inputs = Array.length (Circuit.inputs c) in
  let pats = Patterns.random rng ~n_inputs ~count:pool in
  let { Faultsim.first_detection; detected } = Faultsim.with_dropping fl pats in
  let nf = Fault_list.count fl in
  (* When the pool cannot reach the target (redundant faults), fall
     back to the target fraction of what the pool does detect, so U
     stays small — the paper's intent for nearly-irredundant
     circuits. *)
  let threshold =
    min
      (int_of_float (ceil (target_coverage *. float_of_int nf)))
      (int_of_float (ceil (target_coverage *. float_of_int detected)))
  in
  if detected = 0 then { u = pats; pool_detected = detected; prefix_detected = detected }
  else begin
    (* Exact N: the first pattern index at which the cumulative number
       of first detections reaches the threshold. *)
    let per_pattern = Array.make pool 0 in
    Array.iter (fun p -> if p >= 0 then per_pattern.(p) <- per_pattern.(p) + 1) first_detection;
    let cum = ref 0 and n = ref pool in
    (try
       for p = 0 to pool - 1 do
         cum := !cum + per_pattern.(p);
         if !cum >= threshold then begin
           n := p + 1;
           raise Exit
         end
       done
     with Exit -> ());
    { u = Patterns.prefix pats !n; pool_detected = detected; prefix_detected = !cum }
  end
