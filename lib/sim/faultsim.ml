module Bitvec = Util.Bitvec
module Wordvec = Util.Wordvec
module Parallel = Util.Parallel
module Trace = Util.Trace
module Metrics = Util.Metrics

(* A workspace simulates [width] consecutive 64-pattern blocks (one
   "superblock" of up to 512 patterns) per visit.  All hot per-node
   state lives in ONE flat Bigarray arena of [2 * n * width] unboxed
   words — the faulty-value table in the first half, the observability
   memo in the second — carved into zero-copy views.  Node [n]'s lane
   is words [n*width .. n*width+width-1]; word [w] of a lane holds
   block [sb*width + w].  Every per-word formula is exactly the
   width-1 formula, so results are word-identical for any width. *)
type workspace = {
  circuit : Circuit.t;
  width : int;  (* words per lane: 64*width patterns per pass *)
  fval : Wordvec.t;  (* n*width: faulty value lanes, valid iff dirty *)
  dirty : bool array;  (* any word of the lane diverges from good *)
  scheduled : bool array;
  buckets : int list array;  (* pending nodes per level *)
  out_pos : int array;  (* node -> index in Circuit.outputs, or -1 *)
  mutable touched : int list;  (* nodes with dirty set *)
  mutable sched_nodes : int list;  (* nodes with scheduled set *)
  (* Per-superblock observability memo for the stem kernel: node
     [n]'s lane of [obs_val] is valid iff [obs_stamp.(n) = epoch];
     bumping the epoch (once per superblock) invalidates the table. *)
  obs_val : Wordvec.t;  (* n*width *)
  obs_stamp : int array;
  mutable epoch : int;
  det : int64 array;  (* width-long scratch: detection accumulator *)
  act : int64 array;  (* width-long scratch: activation words *)
  (* Observability counters.  Workspaces are domain-private, so worker
     lanes may bump these freely; the leader merges them after the
     fork-join ({!publish_stats}). *)
  mutable stat_propagations : int;
  mutable stat_stem_toggles : int;
  mutable stat_stem_observable : int;
  mutable stat_stem_detect_words : int;
  mutable stat_goodsim_s : float;
}

let workspace ?(width = 1) c =
  if Circuit.has_state c then
    invalid_arg "Faultsim.workspace: circuit has flip-flops; apply Scan.combinational first";
  if width < 1 then invalid_arg "Faultsim.workspace: width must be positive";
  let n = Circuit.node_count c in
  let out_pos = Array.make n (-1) in
  Array.iteri (fun i o -> out_pos.(o) <- i) (Circuit.outputs c);
  let arena = Wordvec.create (2 * n * width) in
  {
    circuit = c;
    width;
    fval = Wordvec.sub arena 0 (n * width);
    dirty = Array.make n false;
    scheduled = Array.make n false;
    buckets = Array.make (Circuit.depth c + 1) [];
    out_pos;
    touched = [];
    sched_nodes = [];
    obs_val = Wordvec.sub arena (n * width) (n * width);
    obs_stamp = Array.make n (-1);
    epoch = 0;
    det = Array.make width 0L;
    act = Array.make width 0L;
    stat_propagations = 0;
    stat_stem_toggles = 0;
    stat_stem_observable = 0;
    stat_stem_detect_words = 0;
    stat_goodsim_s = 0.0;
  }

let good_arena ws = Wordvec.create (Circuit.node_count ws.circuit * ws.width)

(* Invalidate the observability memo; call once per new good-value
   superblock. *)
let new_block ws = ws.epoch <- ws.epoch + 1

type sim_stats = {
  propagations : int;
  stem_toggles : int;
  stem_observable : int;
  stem_detect_words : int;
  goodsim_s : float;
}

let stats ws =
  {
    propagations = ws.stat_propagations;
    stem_toggles = ws.stat_stem_toggles;
    stem_observable = ws.stat_stem_observable;
    stem_detect_words = ws.stat_stem_detect_words;
    goodsim_s = ws.stat_goodsim_s;
  }

let publish_stats tr wss =
  if Trace.enabled tr then begin
    let p = ref 0 and t = ref 0 and o = ref 0 and d = ref 0 in
    Array.iter
      (fun ws ->
        p := !p + ws.stat_propagations;
        t := !t + ws.stat_stem_toggles;
        o := !o + ws.stat_stem_observable;
        d := !d + ws.stat_stem_detect_words;
        if ws.stat_goodsim_s > 0.0 then
          Metrics.observe (Trace.histogram tr "goodsim.lane_s") ws.stat_goodsim_s)
      wss;
    Metrics.add (Trace.counter tr "faultsim.propagations") !p;
    if !t > 0 then begin
      Metrics.add (Trace.counter tr "faultsim.stem_toggles") !t;
      Metrics.add (Trace.counter tr "faultsim.stem_observable") !o;
      Metrics.add (Trace.counter tr "faultsim.stem_detect_words") !d
    end
  end

(* Goodsim timing accumulates into the (domain-private) workspace; the
   [observed] flag is captured by the lane closure so the disabled path
   pays one branch and no clock reads. *)
let timed_goodsim observed ws pats sb gval =
  if observed then begin
    let t0 = Util.Budget.default_clock () in
    Goodsim.superblock_into ws.circuit pats ~width:ws.width ~sb gval;
    ws.stat_goodsim_s <- ws.stat_goodsim_s +. (Util.Budget.default_clock () -. t0)
  end
  else Goodsim.superblock_into ws.circuit pats ~width:ws.width ~sb gval

let load_good ws gval pats sb =
  if Wordvec.length gval <> Circuit.node_count ws.circuit * ws.width then
    invalid_arg "Faultsim.load_good: bad arena size";
  Goodsim.superblock_into ws.circuit pats ~width:ws.width ~sb gval;
  new_block ws

(* Faulty value of the injection node, word [w] of the superblock. *)
let injected_word ws ~gval (f : Fault.t) w =
  let c = ws.circuit in
  let wd = ws.width in
  let stuck = if f.stuck_at then -1L else 0L in
  match f.site with
  | Fault.Stem _ -> stuck
  | Fault.Branch { gate; pin } ->
      let fanins = Circuit.fanins c gate in
      let k = Circuit.kind c gate in
      (* Evaluate the gate with the faulted pin forced to the stuck
         value; other pins read good values.  Mirrors the good
         evaluation with one override. *)
      let v i =
        if i = pin then stuck else Wordvec.unsafe_get gval ((fanins.(i) * wd) + w)
      in
      let n = Array.length fanins in
      let fold op init =
        let acc = ref init in
        for i = 0 to n - 1 do
          acc := op !acc (v i)
        done;
        !acc
      in
      (match k with
      | Gate.Const0 | Gate.Const1 | Gate.Input ->
          invalid_arg "Faultsim: branch fault on a node without input pins"
      | Gate.Buf | Gate.Dff -> v 0
      | Gate.Not -> Int64.lognot (v 0)
      | Gate.And -> fold Int64.logand (-1L)
      | Gate.Nand -> Int64.lognot (fold Int64.logand (-1L))
      | Gate.Or -> fold Int64.logor 0L
      | Gate.Nor -> Int64.lognot (fold Int64.logor 0L)
      | Gate.Xor -> fold Int64.logxor 0L
      | Gate.Xnor -> Int64.lognot (fold Int64.logxor 0L))

(* Write the injected value into the site's fval lane. *)
let inject ws ~gval (f : Fault.t) =
  let wd = ws.width in
  let off = Fault.site_node f * wd in
  for w = 0 to wd - 1 do
    Wordvec.unsafe_set ws.fval (off + w) (injected_word ws ~gval f w)
  done

(* Full-lane flip of [n] (the stem-observability toggle). *)
let inject_flip ws ~gval n =
  let wd = ws.width in
  let off = n * wd in
  for w = 0 to wd - 1 do
    Wordvec.unsafe_set ws.fval (off + w) (Int64.lognot (Wordvec.unsafe_get gval (off + w)))
  done

let schedule ws node =
  if not ws.scheduled.(node) then begin
    ws.scheduled.(node) <- true;
    ws.sched_nodes <- node :: ws.sched_nodes;
    let l = Circuit.level ws.circuit node in
    ws.buckets.(l) <- node :: ws.buckets.(l)
  end

(* Evaluate [node] in the faulty circuit into its own fval lane: each
   fanin reads its fval lane if dirty, its good lane otherwise.  A
   non-diverging lane stores the good words — harmless, since readers
   only consult fval under the dirty flag. *)
let eval_faulty_into ws ~gval node =
  let c = ws.circuit in
  let wd = ws.width in
  let off = node * wd in
  let fval = ws.fval in
  let k = Circuit.kind c node in
  match k with
  | Gate.Const0 ->
      for w = 0 to wd - 1 do
        Wordvec.unsafe_set fval (off + w) 0L
      done
  | Gate.Const1 ->
      for w = 0 to wd - 1 do
        Wordvec.unsafe_set fval (off + w) (-1L)
      done
  | Gate.Input ->
      for w = 0 to wd - 1 do
        Wordvec.unsafe_set fval (off + w) (Wordvec.unsafe_get gval (off + w))
      done
  | _ ->
      let fanins = Circuit.fanins c node in
      let nf = Array.length fanins in
      let fold op init invert =
        for w = 0 to wd - 1 do
          let acc = ref init in
          for i = 0 to nf - 1 do
            let f = Array.unsafe_get fanins i in
            let src = if Array.unsafe_get ws.dirty f then fval else gval in
            acc := op !acc (Wordvec.unsafe_get src ((f * wd) + w))
          done;
          Wordvec.unsafe_set fval (off + w) (if invert then Int64.lognot !acc else !acc)
        done
      in
      (match k with
      | Gate.Const0 | Gate.Const1 | Gate.Input -> ()
      | Gate.Buf | Gate.Dff ->
          let f = fanins.(0) in
          let src = if ws.dirty.(f) then fval else gval in
          let f0 = f * wd in
          for w = 0 to wd - 1 do
            Wordvec.unsafe_set fval (off + w) (Wordvec.unsafe_get src (f0 + w))
          done
      | Gate.Not ->
          let f = fanins.(0) in
          let src = if ws.dirty.(f) then fval else gval in
          let f0 = f * wd in
          for w = 0 to wd - 1 do
            Wordvec.unsafe_set fval (off + w) (Int64.lognot (Wordvec.unsafe_get src (f0 + w)))
          done
      | Gate.And -> fold Int64.logand (-1L) false
      | Gate.Nand -> fold Int64.logand (-1L) true
      | Gate.Or -> fold Int64.logor 0L false
      | Gate.Nor -> fold Int64.logor 0L true
      | Gate.Xor -> fold Int64.logxor 0L false
      | Gate.Xnor -> fold Int64.logxor 0L true)

(* Does [node]'s fval lane diverge from good in any word? *)
let diverged ws ~gval node =
  let wd = ws.width in
  let off = node * wd in
  let rec go w =
    w < wd
    && (Wordvec.unsafe_get ws.fval (off + w) <> Wordvec.unsafe_get gval (off + w)
       || go (w + 1))
  in
  go 0


(* Event-driven propagation of whatever value the site lane [n0] holds
   (filled by {!inject} or {!inject_flip}) to the primary outputs:
   [ws.det] accumulates, per word, the lanes in which any PO diverges
   from the good values.  With [out], each PO's divergence words are
   also written at [output index * width + word]. *)
let propagate_core ?out ws ~gval n0 =
  let c = ws.circuit in
  ws.stat_propagations <- ws.stat_propagations + 1;
  let wd = ws.width in
  let det = ws.det in
  Array.fill det 0 wd 0L;
  let record node =
    if diverged ws ~gval node then begin
      if not ws.dirty.(node) then begin
        ws.dirty.(node) <- true;
        ws.touched <- node :: ws.touched
      end;
      let p = ws.out_pos.(node) in
      if p >= 0 then begin
        let off = node * wd in
        for w = 0 to wd - 1 do
          let d =
            Int64.logxor (Wordvec.unsafe_get ws.fval (off + w))
              (Wordvec.unsafe_get gval (off + w))
          in
          (match out with Some o -> o.((p * wd) + w) <- d | None -> ());
          det.(w) <- Int64.logor det.(w) d
        done
      end;
      Array.iter (fun s -> schedule ws s) (Circuit.fanouts c node)
    end
  in
  record n0;
  (* Propagate by increasing level; all fanins of a level-L node are
     final before L is processed. *)
  if ws.sched_nodes <> [] then
    for l = 0 to Array.length ws.buckets - 1 do
      let pending = ws.buckets.(l) in
      if pending <> [] then begin
        ws.buckets.(l) <- [];
        List.iter
          (fun node ->
            if node <> n0 then begin
              eval_faulty_into ws ~gval node;
              record node
            end)
          pending
      end
    done;
  List.iter (fun node -> ws.dirty.(node) <- false) ws.touched;
  List.iter (fun node -> ws.scheduled.(node) <- false) ws.sched_nodes;
  ws.touched <- [];
  ws.sched_nodes <- []

let detect_block ws ~good (f : Fault.t) =
  inject ws ~gval:good f;
  propagate_core ws ~gval:good (Fault.site_node f);
  ws.det.(0)

(* Per-output variant of {!detect_block} over the whole superblock: the
   same sweep, so the OR of the per-output words equals the detection
   words bit-for-bit. *)
let detect_block_outputs ws ~good ~out (f : Fault.t) =
  Array.fill out 0 (Array.length out) 0L;
  inject ws ~gval:good f;
  propagate_core ~out ws ~gval:good (Fault.site_node f);
  ws.det

let block_mask pats b =
  let cnt = Patterns.count pats - (b * 64) in
  if cnt >= 64 then -1L else Int64.sub (Int64.shift_left 1L cnt) 1L

(* --- stem kernel: site-probe observability ------------------------- *)

(* Gate output of [node] with every pin fed by [x] complemented (a gate
   may read the same signal on several pins); other pins read good
   values.  One word per block into [dst]; XORed against the good
   output these are the lanes in which a value change at [x] passes
   through the gate. *)
let eval_flip_into c ~gval ~wd ~dst node x =
  let fanins = Circuit.fanins c node in
  let nf = Array.length fanins in
  let v i w =
    let f = Array.unsafe_get fanins i in
    let g = Wordvec.unsafe_get gval ((f * wd) + w) in
    if f = x then Int64.lognot g else g
  in
  let fold op init invert =
    for w = 0 to wd - 1 do
      let acc = ref init in
      for i = 0 to nf - 1 do
        acc := op !acc (v i w)
      done;
      dst.(w) <- (if invert then Int64.lognot !acc else !acc)
    done
  in
  match Circuit.kind c node with
  | Gate.Const0 -> Array.fill dst 0 wd 0L
  | Gate.Const1 -> Array.fill dst 0 wd (-1L)
  | Gate.Input ->
      for w = 0 to wd - 1 do
        dst.(w) <- Wordvec.unsafe_get gval ((node * wd) + w)
      done
  | Gate.Buf | Gate.Dff -> fold (fun _ x -> x) 0L false
  | Gate.Not ->
      for w = 0 to wd - 1 do
        dst.(w) <- Int64.lognot (v 0 w)
      done
  | Gate.And -> fold Int64.logand (-1L) false
  | Gate.Nand -> fold Int64.logand (-1L) true
  | Gate.Or -> fold Int64.logor 0L false
  | Gate.Nor -> fold Int64.logor 0L true
  | Gate.Xor -> fold Int64.logxor 0L false
  | Gate.Xnor -> fold Int64.logxor 0L true

(* Observability of a flip at [n]: per word, the lanes in which
   complementing [n]'s value changes some primary output.  Memoised
   per superblock in the arena; each of the 64*width lanes is an
   independent scalar simulation, so:

   - a primary output observes itself in every lane;
   - a dead node (no path to a PO) is never observed;
   - a node with a unique consumer [g] is observed iff the flip passes
     through [g] (local re-evaluation) and [g] is observed — the
     classic stem-first sensitization step;
   - a multi-fanout stem pays one full event-driven propagation per
     superblock. *)
let rec obs_ensure ws ~gval n =
  if ws.obs_stamp.(n) <> ws.epoch then begin
    let c = ws.circuit in
    let wd = ws.width in
    let off = n * wd in
    let ov = ws.obs_val in
    let store_zero () =
      for w = 0 to wd - 1 do
        Wordvec.unsafe_set ov (off + w) 0L
      done
    in
    (if Circuit.is_output c n then
       for w = 0 to wd - 1 do
         Wordvec.unsafe_set ov (off + w) (-1L)
       done
     else
       let fo = Circuit.fanouts c n in
       match Array.length fo with
       | 0 -> store_zero ()
       | 1 ->
           let g = fo.(0) in
           (* [s] must be call-local: the recursion below may fill
              other memo lanes and the propagation scratch. *)
           let s = Array.make wd 0L in
           eval_flip_into c ~gval ~wd ~dst:s g n;
           let any = ref false in
           for w = 0 to wd - 1 do
             let x = Int64.logxor s.(w) (Wordvec.unsafe_get gval ((g * wd) + w)) in
             s.(w) <- x;
             if x <> 0L then any := true
           done;
           if not !any then store_zero ()
           else begin
             obs_ensure ws ~gval g;
             let goff = g * wd in
             for w = 0 to wd - 1 do
               Wordvec.unsafe_set ov (off + w)
                 (Int64.logand s.(w) (Wordvec.unsafe_get ov (goff + w)))
             done
           end
       | _ ->
           ws.stat_stem_toggles <- ws.stat_stem_toggles + 1;
           inject_flip ws ~gval n;
           propagate_core ws ~gval n;
           let any = ref false in
           for w = 0 to wd - 1 do
             let d = ws.det.(w) in
             Wordvec.unsafe_set ov (off + w) d;
             if d <> 0L then any := true
           done;
           if !any then ws.stat_stem_observable <- ws.stat_stem_observable + 1);
    ws.obs_stamp.(n) <- ws.epoch
  end

(* Exact per-fault detection via the probe decomposition: every lane
   is an independent scalar simulation, so the faulty circuit diverges
   from the good one at the injection site exactly in the activation
   lanes, and downstream each activated lane behaves as a full flip at
   the site.  Hence [D(f) = activation(f) AND obs(site_node f)] — the
   observability lane is shared ("probed" once) by every fault of the
   site, which is the re-expansion step of the collapsed-universe
   simulation.  Fills [ws.det]. *)
let detect_probe ws ~gval (f : Fault.t) =
  let n = Fault.site_node f in
  let wd = ws.width in
  let off = n * wd in
  let act = ws.act in
  let any = ref false in
  for w = 0 to wd - 1 do
    let a = Int64.logxor (injected_word ws ~gval f w) (Wordvec.unsafe_get gval (off + w)) in
    act.(w) <- a;
    if a <> 0L then any := true
  done;
  if not !any then Array.fill ws.det 0 wd 0L
  else begin
    obs_ensure ws ~gval n;
    let anyd = ref false in
    let det = ws.det in
    for w = 0 to wd - 1 do
      let d = Int64.logand act.(w) (Wordvec.unsafe_get ws.obs_val (off + w)) in
      det.(w) <- d;
      if d <> 0L then anyd := true
    done;
    if !anyd then ws.stat_stem_detect_words <- ws.stat_stem_detect_words + 1
  end

(* --- whole-pattern-set drivers ------------------------------------ *)

let superblocks nblocks width = (nblocks + width - 1) / width

(* Wider superblocks amortise the levelised traversal over more
   patterns but leave lanes idle when there are fewer blocks than
   [jobs * width]: one superblock per lane, at most 8 words wide. *)
let superblock_width ~jobs nblocks =
  let jobs = max 1 jobs in
  max 1 (min 8 ((nblocks + jobs - 1) / jobs))

(* Detection sets have no cross-block dependency, so each of
   [min jobs nsb] lanes owns a static slice of the superblocks —
   private workspace and good-value arena, one {!Util.Parallel.run} for
   the whole call — and writes only its own blocks' words of each
   detection set.  Every (fault, block) word is computed by exactly one
   lane and its value depends only on (circuit, fault, block), so the
   result is bit-identical for any [jobs] regardless of scheduling. *)
let detection_sets ?(jobs = 1) fl pats =
  let jobs = max 1 jobs in
  let nblocks = Patterns.blocks pats in
  let width = superblock_width ~jobs nblocks in
  let tr = Trace.current () in
  let observed = Trace.enabled tr in
  Trace.span tr
    ~attrs:
      [ ("jobs", Trace.Int jobs); ("faults", Trace.Int (Fault_list.count fl));
        ("patterns", Trace.Int (Patterns.count pats)); ("block_width", Trace.Int width) ]
    "faultsim.detection_sets"
  @@ fun () ->
  let c = Fault_list.circuit fl in
  let nf = Fault_list.count fl in
  let dsets = Array.init nf (fun _ -> Bitvec.create (Patterns.count pats)) in
  let nsb = superblocks nblocks width in
  let k = min jobs (max nsb 1) in
  let wss = Array.init k (fun _ -> workspace ~width c) in
  Parallel.run
    (Array.init k (fun lane ->
         fun () ->
          let ws = wss.(lane) in
          let gval = good_arena ws in
          for sb = lane * nsb / k to ((lane + 1) * nsb / k) - 1 do
            timed_goodsim observed ws pats sb gval;
            new_block ws;
            let b0 = sb * width in
            let lim = min width (nblocks - b0) in
            for fi = 0 to nf - 1 do
              detect_probe ws ~gval (Fault_list.get fl fi);
              let det = ws.det in
              for w = 0 to lim - 1 do
                let b = b0 + w in
                let d = Int64.logand det.(w) (block_mask pats b) in
                if d <> 0L then (Bitvec.words dsets.(fi)).(b) <- d
              done
            done
          done));
  publish_stats tr wss;
  dsets

let ndet dsets pats =
  let counts = Array.make (Patterns.count pats) 0 in
  Array.iter (fun d -> Bitvec.iter_set d (fun p -> counts.(p) <- counts.(p) + 1)) dsets;
  counts

type drop_result = { first_detection : int array; detected : int }

(* The dropping family's one driver, serial and one block wide: each
   block's work depends on which faults the previous blocks dropped,
   and wider superblocks lost to width 1 on every measured circuit.
   One workspace walks the blocks in order and, per block, the live
   faults in fault order.  [absorb ~b fi d] folds fault [fi]'s masked
   detection word [d] of block [b] into the caller's result and says
   whether [fi] stays live. *)
let drop_scan ~name ?(attrs = []) fl pats absorb =
  let tr = Trace.current () in
  let observed = Trace.enabled tr in
  Trace.span tr
    ~attrs:
      (attrs
      @ [ ("faults", Trace.Int (Fault_list.count fl));
          ("patterns", Trace.Int (Patterns.count pats)) ])
    name
  @@ fun () ->
  let ws = workspace (Fault_list.circuit fl) in
  let gval = good_arena ws in
  let alive = Array.init (Fault_list.count fl) Fun.id in
  let live = ref (Array.length alive) in
  let nblocks = Patterns.blocks pats in
  let b = ref 0 in
  while !b < nblocks && !live > 0 do
    timed_goodsim observed ws pats !b gval;
    new_block ws;
    let mask = block_mask pats !b in
    let n = !live in
    live := 0;
    for i = 0 to n - 1 do
      let fi = alive.(i) in
      detect_probe ws ~gval (Fault_list.get fl fi);
      if absorb ~b:!b fi (Int64.logand ws.det.(0) mask) then begin
        alive.(!live) <- fi;
        incr live
      end
    done;
    incr b
  done;
  publish_stats tr [| ws |]

let with_dropping fl pats =
  let first = Array.make (Fault_list.count fl) (-1) in
  let detected = ref 0 in
  drop_scan ~name:"faultsim.with_dropping" fl pats (fun ~b fi d ->
      d = 0L
      || begin
           first.(fi) <- (b * 64) + Bitvec.ctz d;
           incr detected;
           false
         end);
  { first_detection = first; detected = !detected }

(* Keep only the earliest detections of [d] up to the cap. *)
let keep_capped counts fi ~n d =
  let kept = ref 0L and w = ref d in
  while !w <> 0L && counts.(fi) < n do
    let low = Int64.logand !w (Int64.neg !w) in
    kept := Int64.logor !kept low;
    counts.(fi) <- counts.(fi) + 1;
    w := Int64.logxor !w low
  done;
  !kept

let detection_sets_capped fl pats ~n =
  if n <= 0 then invalid_arg "Faultsim.detection_sets_capped: n must be positive";
  let nf = Fault_list.count fl in
  let dsets = Array.init nf (fun _ -> Bitvec.create (Patterns.count pats)) in
  let counts = Array.make nf 0 in
  drop_scan ~name:"faultsim.detection_sets_capped" ~attrs:[ ("n", Trace.Int n) ] fl pats
    (fun ~b fi d ->
      if d <> 0L then (Bitvec.words dsets.(fi)).(b) <- keep_capped counts fi ~n d;
      counts.(fi) < n);
  dsets

let detects c f pi_values =
  if Array.length pi_values <> Array.length (Circuit.inputs c) then
    invalid_arg "Faultsim.detects: input width mismatch";
  let pats = Patterns.of_vectors ~n_inputs:(Array.length pi_values) [| pi_values |] in
  let ws = workspace c in
  let good = good_arena ws in
  load_good ws good pats 0;
  Int64.logand (detect_block ws ~good f) 1L = 1L
