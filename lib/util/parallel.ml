(* Each worker owns a FIFO job queue guarded by its own mutex; the
   leader pushes fork-join groups, workers pop and run them in order.
   Each group signals its own completion through a latch. *)

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : (unit -> unit) Queue.t;  (* fork-join groups; jobs must never raise *)
  mutable quit : bool;
  mutable domain : unit Domain.t option;
}

type t = { size : int; workers : worker array; mutable alive : bool }

let default_jobs () = Domain.recommended_domain_count ()

(* Workers drain their queue before honouring [quit], so a shutdown
   never strands a submitted job (its completion would wedge the
   leader). *)
let worker_loop w =
  let rec loop () =
    Mutex.lock w.mutex;
    while Queue.is_empty w.queue && not w.quit do
      Condition.wait w.cond w.mutex
    done;
    if Queue.is_empty w.queue then Mutex.unlock w.mutex
    else begin
      let job = Queue.pop w.queue in
      Mutex.unlock w.mutex;
      job ();
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Parallel.create: jobs must be at least 1";
  let jobs = min jobs 128 in
  (* Never oversubscribe the machine: running more domains than cores
     makes every stop-the-world minor collection wait on descheduled
     domains.  Excess lanes beyond the spawned workers are executed by
     the existing domains, so results don't depend on the cap. *)
  let spawned = min jobs (max 1 (default_jobs ())) - 1 in
  let workers =
    Array.init spawned (fun _ ->
        { mutex = Mutex.create (); cond = Condition.create (); queue = Queue.create ();
          quit = false; domain = None })
  in
  Array.iter (fun w -> w.domain <- Some (Domain.spawn (fun () -> worker_loop w))) workers;
  { size = jobs; workers; alive = true }

let jobs t = t.size

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.quit <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      t.workers;
    Array.iter (fun w -> Option.iter Domain.join w.domain) t.workers
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let enqueue w job =
  Mutex.lock w.mutex;
  Queue.push job w.queue;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

(* One-shot completion latch for fork-join groups. *)
type latch = { lm : Mutex.t; lcv : Condition.t; mutable fired : bool }

let latch () = { lm = Mutex.create (); lcv = Condition.create (); fired = false }

let fire l =
  Mutex.lock l.lm;
  l.fired <- true;
  Condition.broadcast l.lcv;
  Mutex.unlock l.lm

let await l =
  Mutex.lock l.lm;
  while not l.fired do
    Condition.wait l.lcv l.lm
  done;
  Mutex.unlock l.lm

let run t tasks =
  if not t.alive then invalid_arg "Parallel.run: pool is shut down";
  let n = Array.length tasks in
  if n > t.size then invalid_arg "Parallel.run: more tasks than pool lanes";
  if n > 0 then begin
    (* Tasks are dealt out in contiguous groups, one per executing
       domain (the workers plus the caller); a group runs its tasks in
       sequence, recording each outcome, so every task executes even
       when an earlier one raises. *)
    let outcomes = Array.make n None in
    let g = min (Array.length t.workers + 1) n in
    let group j () =
      for i = j * n / g to ((j + 1) * n / g) - 1 do
        match tasks.(i) () with
        | () -> ()
        | exception e -> outcomes.(i) <- Some e
      done
    in
    let latches = Array.init (g - 1) (fun _ -> latch ()) in
    for j = 1 to g - 1 do
      let l = latches.(j - 1) in
      (* Group closures never raise, so the latch always fires. *)
      enqueue t.workers.(j - 1) (fun () -> group j (); fire l)
    done;
    group 0 ();
    Array.iter await latches;
    Array.iter (function Some e -> raise e | None -> ()) outcomes
  end

let parallel_for t n f =
  if n > 0 then begin
    let k = min t.size n in
    run t
      (Array.init k (fun i ->
           let lo = i * n / k and hi = (i + 1) * n / k in
           fun () ->
             for j = lo to hi - 1 do
               f j
             done))
  end

let map_slices t n f =
  if n < 0 then invalid_arg "Parallel.map_slices: negative range";
  if n = 0 then [||]
  else begin
    let k = min t.size n in
    let out = Array.make k None in
    run t
      (Array.init k (fun i ->
           let lo = i * n / k and hi = (i + 1) * n / k in
           fun () -> out.(i) <- Some (f ~lo ~hi)));
    Array.map (function Some v -> v | None -> assert false) out
  end
