module Rng = Util.Rng
module Budget = Util.Budget
module Trace = Util.Trace
module Metrics = Util.Metrics

type config = {
  backtrack_limit : int;
  seed : int;
  retries : int;
  time_budget_s : float option;
  per_fault_budget_s : float option;
}

let default_config =
  {
    backtrack_limit = 256;
    seed = 0xAD1;
    retries = 1;
    time_budget_s = None;
    per_fault_budget_s = None;
  }

type snapshot = {
  snap_pass : int;
  snap_schedule : int array;
  snap_pos : int;
  snap_limit : int;
  snap_retry_rev : int list;
  snap_ever_retried : bool array;
  snap_detected_by : int array;
  snap_tests_rev : bool array list;
  snap_targeted_rev : int list;
  snap_untestable_rev : int list;
  snap_out_of_budget_rev : int list;
  snap_n_tests : int;
  snap_rng_state : int64;
  snap_decisions : int;
  snap_backtracks : int;
  snap_implications : int;
}

(* End-of-run metrics: the search statistics that are
   otherwise trapped inside [result].  Counters accumulate, so several
   runs under one tracer (the bench driver) sum up. *)
let publish_result tr ws (stats : Podem.stats) ~tests ~untestable ~aborted
    ~out_of_budget ~retry_recovered =
  if Trace.enabled tr then begin
    Metrics.add (Trace.counter tr "podem.decisions") stats.Podem.decisions;
    Metrics.add (Trace.counter tr "podem.backtracks") stats.Podem.backtracks;
    Metrics.add (Trace.counter tr "podem.implications") stats.Podem.implications;
    Metrics.add (Trace.counter tr "engine.tests") tests;
    Metrics.add (Trace.counter tr "engine.untestable") untestable;
    Metrics.add (Trace.counter tr "engine.aborted") aborted;
    Metrics.add (Trace.counter tr "engine.out_of_budget") out_of_budget;
    Metrics.add (Trace.counter tr "engine.retry_recovered") retry_recovered;
    Faultsim.publish_stats tr [| ws |]
  end

type result = {
  tests : Patterns.t;
  detected_by : int array;
  targeted : int array;
  untestable : int list;
  aborted : int list;
  out_of_budget : int list;
  retry_recovered : int;
  interrupted : bool;
  snapshot : snapshot option;
  stats : Podem.stats;
  runtime_s : float;
  (* Always 0 now that the engine is serial; the benchmark probe reads them. *)
  spec_dispatched : int;
  spec_committed : int;
}

let fill_cube rng cube =
  Array.map
    (function Ternary.Zero -> false | Ternary.One -> true | Ternary.X -> Rng.bool rng)
    cube

let check_order n order =
  if Array.length order <> n then invalid_arg "Engine.run: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg "Engine.run: order is not a permutation";
      seen.(i) <- true)
    order

(* The one generation loop: for each pending fault of the pass, PODEM,
   random fill, then a drop scan.  [secondary_limit] > 0 adds dynamic
   compaction between search and fill; [run] passes 0. *)
let generate ~secondary_limit ?(config = default_config) ?resume ?checkpoint_every
    ?on_checkpoint ?(should_stop = fun () -> false) fl ~order =
  if config.retries < 0 then invalid_arg "Engine.run: retries must be non-negative";
  let c = Fault_list.circuit fl in
  let nf = Fault_list.count fl in
  check_order nf order;
  let t0 = Unix.gettimeofday () in
  let tr = Trace.current () in
  let observed = Trace.enabled tr in
  let scoap = Scoap.compute c in
  let ws = Faultsim.workspace c in
  let stats = Podem.fresh_stats () in
  let ctx = Podem.context ~stats c scoap in
  let run_budget = Budget.of_seconds_opt config.time_budget_s in
  (* Mutable run state, either fresh or rebuilt from a checkpoint
     snapshot.  Everything needed to continue deterministically lives
     here: pass structure, partial classifications, and the RNG. *)
  let pass = ref 0 in
  let schedule = ref order in
  let pos = ref 0 in
  let limit = ref config.backtrack_limit in
  let retry_rev = ref [] in
  let ever_retried = Array.make nf false in
  let detected_by = Array.make nf (-1) in
  let tests_rev = ref [] in
  let targeted_rev = ref [] in
  let untestable_rev = ref [] in
  let out_of_budget_rev = ref [] in
  let n_tests = ref 0 in
  let rng =
    match resume with
    | None -> Rng.create config.seed
    | Some s ->
        if Array.length s.snap_detected_by <> nf || Array.length s.snap_ever_retried <> nf
        then invalid_arg "Engine.run: snapshot does not match the fault list";
        pass := s.snap_pass;
        schedule := Array.copy s.snap_schedule;
        pos := s.snap_pos;
        limit := s.snap_limit;
        retry_rev := s.snap_retry_rev;
        Array.blit s.snap_ever_retried 0 ever_retried 0 nf;
        Array.blit s.snap_detected_by 0 detected_by 0 nf;
        tests_rev := s.snap_tests_rev;
        targeted_rev := s.snap_targeted_rev;
        untestable_rev := s.snap_untestable_rev;
        out_of_budget_rev := s.snap_out_of_budget_rev;
        n_tests := s.snap_n_tests;
        stats.Podem.decisions <- s.snap_decisions;
        stats.Podem.backtracks <- s.snap_backtracks;
        stats.Podem.implications <- s.snap_implications;
        Rng.restore s.snap_rng_state
  in
  let snap () =
    {
      snap_pass = !pass;
      snap_schedule = Array.copy !schedule;
      snap_pos = !pos;
      snap_limit = !limit;
      snap_retry_rev = !retry_rev;
      snap_ever_retried = Array.copy ever_retried;
      snap_detected_by = Array.copy detected_by;
      snap_tests_rev = !tests_rev;
      snap_targeted_rev = !targeted_rev;
      snap_untestable_rev = !untestable_rev;
      snap_out_of_budget_rev = !out_of_budget_rev;
      snap_n_tests = !n_tests;
      snap_rng_state = Rng.state rng;
      snap_decisions = stats.Podem.decisions;
      snap_backtracks = stats.Podem.backtracks;
      snap_implications = stats.Podem.implications;
    }
  in
  let n_inputs = Array.length (Circuit.inputs c) in
  let good = Faultsim.good_arena ws in
  (* Observability handles; all dummies when tracing is off. *)
  let h_good = Trace.histogram tr "engine.goodsim_block_s" in
  let h_drops = Trace.histogram tr "engine.drops_per_test" in
  let h_gen_test = Trace.histogram tr "engine.gen_s.test" in
  let h_gen_unt = Trace.histogram tr "engine.gen_s.untestable" in
  let h_gen_abort = Trace.histogram tr "engine.gen_s.aborted" in
  let h_gen_oob = Trace.histogram tr "engine.gen_s.out_of_budget" in
  let c_budget = Trace.counter tr "engine.budget_expired" in
  (* A test's drop scan is one pattern wide, so it is a plain loop
     over the live faults after one good-value load. *)
  let simulate_and_drop vec test_idx =
    Trace.time tr h_good (fun () ->
        Faultsim.load_good ws good (Patterns.of_vectors ~n_inputs [| vec |]) 0);
    let drops = ref 0 in
    for fi = 0 to nf - 1 do
      if
        detected_by.(fi) < 0
        && Int64.logand (Faultsim.detect_block ws ~good (Fault_list.get fl fi)) 1L = 1L
      then begin
        detected_by.(fi) <- test_idx;
        incr drops
      end
    done;
    if observed then Metrics.observe h_drops (float_of_int !drops)
  in
  (* Dynamic compaction: target the pass's later undetected faults
     under the primary cube's assignments, within the primary's
     deadline, merging every success into the cube before fill. *)
  let add_secondaries ~deadline cube =
    let cube = ref cube and attempts = ref 0 and i = ref (!pos + 1) in
    let sched = !schedule in
    while
      !i < Array.length sched
      && !attempts < secondary_limit
      && Array.exists (fun t -> t = Ternary.X) !cube
      && not (Budget.expired run_budget)
    do
      let gi = sched.(!i) in
      if detected_by.(gi) < 0 then begin
        incr attempts;
        match
          Podem.generate_in ~backtrack_limit:!limit ~deadline ~fixed:!cube ctx
            (Fault_list.get fl gi)
        with
        | Podem.Test merged -> cube := merged
        | Podem.Untestable | Podem.Aborted | Podem.Out_of_budget -> ()
      end;
      incr i
    done;
    !cube
  in
  let interrupted = ref false in
  let since_checkpoint = ref 0 in
  let maybe_checkpoint () =
    match (checkpoint_every, on_checkpoint) with
    | Some every, Some save ->
        incr since_checkpoint;
        if !since_checkpoint >= every then begin
          since_checkpoint := 0;
          save (snap ())
        end
    | _ -> ()
  in
  let note_budget_expired () =
    interrupted := true;
    if observed then begin
      Metrics.incr c_budget;
      Trace.instant tr ~attrs:[ ("pass", Trace.Int !pass) ] "engine.budget_expired"
    end
  in
  (* Generate for one fault; returns false when the whole-run budget
     fired mid-search, in which case the fault stays pending and the
     partial search effort is rolled back so a resumed run reproduces
     the stats of an uninterrupted one. *)
  let process fi =
    if detected_by.(fi) >= 0 then true
    else begin
      let d0 = stats.Podem.decisions
      and b0 = stats.Podem.backtracks
      and i0 = stats.Podem.implications in
      let deadline = Budget.sub_opt run_budget config.per_fault_budget_s in
      let gen_t0 = if observed then Trace.now_s tr else 0.0 in
      let outcome =
        Podem.generate_in ~backtrack_limit:!limit ~deadline ctx (Fault_list.get fl fi)
      in
      if observed then begin
        let dt = Trace.now_s tr -. gen_t0 in
        let h =
          match outcome with
          | Podem.Test _ -> h_gen_test
          | Podem.Untestable -> h_gen_unt
          | Podem.Aborted -> h_gen_abort
          | Podem.Out_of_budget -> h_gen_oob
        in
        Metrics.observe h dt
      end;
      match outcome with
      | Podem.Untestable ->
          untestable_rev := fi :: !untestable_rev;
          true
      | Podem.Aborted ->
          retry_rev := fi :: !retry_rev;
          true
      | Podem.Out_of_budget ->
          if Budget.expired run_budget then begin
            stats.Podem.decisions <- d0;
            stats.Podem.backtracks <- b0;
            stats.Podem.implications <- i0;
            false
          end
          else begin
            out_of_budget_rev := fi :: !out_of_budget_rev;
            true
          end
      | Podem.Test cube ->
          let vec = fill_cube rng (add_secondaries ~deadline cube) in
          let idx = !n_tests in
          tests_rev := vec :: !tests_rev;
          targeted_rev := fi :: !targeted_rev;
          incr n_tests;
          simulate_and_drop vec idx;
          (* Five-valued D-propagation is pessimistic, so the cube
             detects the target for every fill of its don't-cares. *)
          assert (detected_by.(fi) = idx);
          true
    end
  in
  let run_pass () =
    while !pos < Array.length !schedule && not !interrupted do
      if should_stop () then interrupted := true
      else if Budget.expired run_budget then note_budget_expired ()
      else if process !schedule.(!pos) then begin
        incr pos;
        maybe_checkpoint ()
      end
      else
        (* [process] saw the whole-run budget fire mid-search. *)
        note_budget_expired ()
    done
  in
  let rec passes () =
    Trace.span tr
      ~attrs:
        [ ("pass", Trace.Int !pass); ("limit", Trace.Int !limit);
          ("pending", Trace.Int (Array.length !schedule - !pos)) ]
      "engine.pass" run_pass;
    if not !interrupted then begin
      let retry = List.rev !retry_rev in
      if retry <> [] && !pass < config.retries then begin
        (* Escalation: give every abort a second chance with twice the
           backtrack budget while wall-clock budget remains. *)
        List.iter (fun fi -> ever_retried.(fi) <- true) retry;
        incr pass;
        schedule := Array.of_list retry;
        retry_rev := [];
        pos := 0;
        limit := !limit * 2;
        passes ()
      end
    end
  in
  passes ();
  let aborted = List.rev !retry_rev in
  let in_final = Array.make nf false in
  List.iter (fun fi -> in_final.(fi) <- true) aborted;
  let retry_recovered = ref 0 in
  Array.iteri (fun fi r -> if r && not in_final.(fi) then incr retry_recovered) ever_retried;
  let tests_arr = Array.of_list (List.rev !tests_rev) in
  publish_result tr ws stats ~tests:!n_tests
    ~untestable:(List.length !untestable_rev) ~aborted:(List.length aborted)
    ~out_of_budget:(List.length !out_of_budget_rev) ~retry_recovered:!retry_recovered;
  {
    tests = Patterns.of_vectors ~n_inputs tests_arr;
    detected_by;
    targeted = Array.of_list (List.rev !targeted_rev);
    untestable = List.rev !untestable_rev;
    aborted;
    out_of_budget = List.rev !out_of_budget_rev;
    retry_recovered = !retry_recovered;
    interrupted = !interrupted;
    snapshot = (if !interrupted then Some (snap ()) else None);
    stats;
    runtime_s = Unix.gettimeofday () -. t0;
    spec_dispatched = 0;
    spec_committed = 0;
  }

let run = generate ~secondary_limit:0

let run_compacting ?(config = default_config) ?(secondary_limit = 50) fl ~order =
  Trace.span (Trace.current ())
    ~attrs:[ ("secondary_limit", Trace.Int secondary_limit) ]
    "engine.compact"
    (fun () -> generate ~secondary_limit ~config:{ config with retries = 0 } fl ~order)

let coverage fl result =
  let nf = Fault_list.count fl in
  let n_unt = List.length result.untestable in
  let detected = Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 result.detected_by in
  if nf = n_unt then 1.0 else float_of_int detected /. float_of_int (nf - n_unt)
