(* Domain pool with work stealing and deterministic in-order reduction.

   Orchestration model: the pool is driven from a single domain (the
   caller, worker 0).  [run_batch] splits the input into contiguous
   chunks, seeds each worker's deque with a contiguous block of chunks
   (the caller owns the first block, so the commit cursor streams from
   index 0 while later chunks are still in flight), bumps the batch
   epoch and wakes the workers.  Everyone — caller included — pops from
   the head of its own deque and steals from the tail of a victim's.

   Determinism contract: chunk k writes its per-element results into a
   slot array and only then marks itself done (stats update + done flag
   under the pool mutex, which also publishes the plain slot writes to
   the caller).  The caller commits results strictly in index order as
   the contiguous done prefix grows, so the sequence of [commit] calls —
   and therefore every byte of downstream output — is identical to the
   jobs=1 literal loop, no matter how completion interleaves.

   Exceptions raised by a task are captured per element.  The caller
   commits the exact prefix of results preceding the first raising index,
   waits for every chunk to finish (so no worker touches batch state
   after [run_batch] returns), then re-raises on its own stack. *)

type task = int -> unit (* argument: id of the executing worker *)

type deque = {
  dmu : Mutex.t;
  mutable buf : task array;
  mutable head : int;
  mutable tail : int;
}

type stats = {
  jobs : int;
  tasks : int;
  steals : int;
  busy : float array;
  max_queue_depth : int;
}

type t = {
  njobs : int;
  mu : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable epoch : int;
  mutable stop : bool;
  mutable stopped : bool;
  deques : deque array;
  mutable domains : unit Domain.t list;
  (* telemetry, cumulative since [create]; guarded by [mu] except
     [steals], which thieves bump lock-free from many domains *)
  mutable total_tasks : int;
  busy_s : float array;
  n_steals : int Atomic.t;
  mutable max_depth : int;
}

(* radiolint: allow taint — telemetry-only wall clock; feeds the busy-time
   counters and nothing observable by election outcomes. *)
let now () = Unix.gettimeofday ()

let noop_task : task = fun _ -> ()

let mk_deque () = { dmu = Mutex.create (); buf = [||]; head = 0; tail = 0 }

(* ------------------------------------------------------------------ *)
(* Worker-side scheduling                                              *)
(* ------------------------------------------------------------------ *)

let pop_own d =
  Mutex.lock d.dmu;
  let r =
    if d.head < d.tail then begin
      let t = d.buf.(d.head) in
      d.buf.(d.head) <- noop_task;
      d.head <- d.head + 1;
      Some t
    end
    else None
  in
  Mutex.unlock d.dmu;
  r

let steal_from d =
  Mutex.lock d.dmu;
  let r =
    if d.head < d.tail then begin
      d.tail <- d.tail - 1;
      let t = d.buf.(d.tail) in
      d.buf.(d.tail) <- noop_task;
      Some t
    end
    else None
  in
  Mutex.unlock d.dmu;
  r

let take_task pool wid =
  match pop_own pool.deques.(wid) with
  | Some _ as t -> t
  | None ->
      let n = pool.njobs in
      let rec try_victim k =
        if k >= n then None
        else
          let v = (wid + k) mod n in
          match steal_from pool.deques.(v) with
          | Some _ as t ->
              Atomic.incr pool.n_steals;
              t
          | None -> try_victim (k + 1)
      in
      try_victim 1

let rec run_work pool wid =
  match take_task pool wid with
  | Some task ->
      task wid;
      run_work pool wid
  | None -> ()

let rec worker_loop pool wid seen =
  Mutex.lock pool.mu;
  while pool.epoch = seen && not pool.stop do
    Condition.wait pool.work_ready pool.mu
  done;
  let stop = pool.stop in
  let seen = pool.epoch in
  Mutex.unlock pool.mu;
  if not stop then begin
    run_work pool wid;
    worker_loop pool wid seen
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

let resolve_jobs = function
  | Some j -> clamp_jobs j
  | None -> (
      match Sys.getenv_opt "ANORAD_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some j -> clamp_jobs j
          | None -> clamp_jobs (Domain.recommended_domain_count ()))
      | None -> clamp_jobs (Domain.recommended_domain_count ()))

let create ?jobs () =
  let njobs = resolve_jobs jobs in
  let pool =
    {
      njobs;
      mu = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      epoch = 0;
      stop = false;
      stopped = false;
      deques = Array.init njobs (fun _ -> mk_deque ());
      domains = [];
      total_tasks = 0;
      busy_s = Array.make njobs 0.;
      n_steals = Atomic.make 0;
      max_depth = 0;
    }
  in
  if njobs > 1 then
    pool.domains <-
      List.init (njobs - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop pool (i + 1) 0));
  pool

let sequential () = create ~jobs:1 ()
let jobs t = t.njobs

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mu;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mu;
    List.iter Domain.join t.domains;
    t.domains <- [];
    t.stopped <- true
  end

let is_alive t = not t.stopped

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_sequential ~f ~commit xs =
  for i = 0 to Array.length xs - 1 do
    commit i (f i xs.(i))
  done

let run_parallel pool ~chunk ~f ~commit xs =
  let n = Array.length xs in
  let chunk_len =
    match chunk with
    | Some c -> max 1 c
    | None ->
        let target = 4 * pool.njobs in
        max 1 ((n + target - 1) / target)
  in
  let nchunks = (n + chunk_len - 1) / chunk_len in
  let slots = Array.make n None in
  let chunk_done = Array.make nchunks false (* guarded by pool.mu *) in
  let task_of_chunk k : task =
   fun wid ->
    (* radiolint: allow range-overflow -- k < nchunks, so the products
       stay below n + chunk_len *)
    let lo = k * chunk_len and hi = min n ((k + 1) * chunk_len) in
    let t0 = now () in
    for i = lo to hi - 1 do
      slots.(i) <-
        Some (match f i xs.(i) with y -> Ok y | exception ex -> Error ex)
    done;
    let dt = now () -. t0 in
    Mutex.lock pool.mu;
    chunk_done.(k) <- true;
    pool.total_tasks <- pool.total_tasks + (hi - lo);
    pool.busy_s.(wid) <- pool.busy_s.(wid) +. dt;
    Condition.broadcast pool.batch_done;
    Mutex.unlock pool.mu
  in
  (* Seed the deques: contiguous blocks of chunks, caller (worker 0)
     first, so the in-order commit cursor starts moving immediately. *)
  let per = (nchunks + pool.njobs - 1) / pool.njobs in
  for w = 0 to pool.njobs - 1 do
    (* radiolint: allow range-overflow -- w < njobs and per is the
       per-worker chunk share, so the products stay below nchunks + per *)
    let lo = w * per and hi = min nchunks ((w + 1) * per) in
    let count = max 0 (hi - lo) in
    let d = pool.deques.(w) in
    Mutex.lock d.dmu;
    d.buf <- Array.init count (fun k -> task_of_chunk (lo + k));
    d.head <- 0;
    d.tail <- count;
    Mutex.unlock d.dmu;
    if count > pool.max_depth then pool.max_depth <- count
  done;
  Mutex.lock pool.mu;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mu;
  (* In-order commit cursor, shared by the streaming and draining paths.
     [first_err] freezes the commit stream at the first raising index. *)
  let cursor = ref 0 (* next chunk to commit *) in
  let first_err = ref None in
  let commit_chunk k =
    (* radiolint: allow range-overflow -- k < nchunks, the same bound as
       task_of_chunk *)
    let lo = k * chunk_len and hi = min n ((k + 1) * chunk_len) in
    for i = lo to hi - 1 do
      match slots.(i) with
      | Some (Ok y) -> if Option.is_none !first_err then commit i y
      | Some (Error ex) ->
          if Option.is_none !first_err then first_err := Some ex
      | None ->
          if Option.is_none !first_err then
            first_err := Some (Failure "Pool: missing slot")
    done
  in
  let scan_done () =
    (* with pool.mu held: extent of the contiguous done prefix *)
    let upto = ref !cursor in
    while !upto < nchunks && chunk_done.(!upto) do
      incr upto
    done;
    !upto
  in
  let drain_ready () =
    Mutex.lock pool.mu;
    let upto = scan_done () in
    Mutex.unlock pool.mu;
    for k = !cursor to upto - 1 do
      commit_chunk k
    done;
    cursor := upto
  in
  (* The caller works its own deque (and steals) like any worker,
     streaming commits between chunks. *)
  let rec caller_work () =
    match take_task pool 0 with
    | Some task ->
        task 0;
        drain_ready ();
        caller_work ()
    | None -> ()
  in
  caller_work ();
  (* Barrier: wait for the remaining chunks, committing as the prefix
     grows.  [cursor = nchunks] implies every chunk is done. *)
  let rec drain_block () =
    if !cursor < nchunks then begin
      Mutex.lock pool.mu;
      let upto = ref (scan_done ()) in
      while !upto = !cursor do
        Condition.wait pool.batch_done pool.mu;
        upto := scan_done ()
      done;
      Mutex.unlock pool.mu;
      for k = !cursor to !upto - 1 do
        commit_chunk k
      done;
      cursor := !upto;
      drain_block ()
    end
  in
  drain_block ();
  match !first_err with None -> () | Some ex -> raise ex

(* Batches smaller than this run on the caller: at a few microseconds per
   element, the scatter/steal/barrier machinery costs more than the work
   (docs/PARALLEL.md).  Only applies when the caller did not pass ~chunk —
   an explicit chunk size is a statement that the per-element work is
   heavy enough to split regardless of batch length. *)
let min_parallel_batch = 16

let run_batch t ?chunk ~f ~commit xs =
  let n = Array.length xs in
  if n = 0 then ()
  else if
    t.njobs = 1 || t.stopped || (chunk = None && n < min_parallel_batch)
  then begin
    (* The literal sequential path: never touches domains, atomics, or
       the deques.  Taken for jobs=1 and for small un-chunked batches
       (caller-executes fallback). *)
    Mutex.lock t.mu;
    t.total_tasks <- t.total_tasks + n;
    Mutex.unlock t.mu;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> t.busy_s.(0) <- t.busy_s.(0) +. (now () -. t0))
      (fun () -> run_sequential ~f ~commit xs)
  end
  else run_parallel t ~chunk ~f ~commit xs

(* ------------------------------------------------------------------ *)
(* Derived combinators                                                 *)
(* ------------------------------------------------------------------ *)

let map_array t ?chunk ~f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  run_batch t ?chunk ~f:(fun _ x -> f x) ~commit:(fun i y -> out.(i) <- Some y) xs;
  Array.map Option.get out

let map t ?chunk ~f xs = Array.to_list (map_array t ?chunk ~f (Array.of_list xs))

let map_reduce t ?chunk ~f ~init ~merge xs =
  let acc = ref init in
  run_batch t ?chunk
    ~f:(fun _ x -> f x)
    ~commit:(fun _ y -> acc := merge !acc y)
    (Array.of_list xs);
  !acc

let iter_batches t ?chunk ~f xs =
  run_batch t ?chunk ~f:(fun _ x -> f x) ~commit:(fun _ () -> ()) (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      jobs = t.njobs;
      tasks = t.total_tasks;
      steals = Atomic.get t.n_steals;
      busy = Array.copy t.busy_s;
      max_queue_depth = t.max_depth;
    }
  in
  Mutex.unlock t.mu;
  s

let pp_stats ppf s =
  let total_busy = Array.fold_left ( +. ) 0. s.busy in
  Format.fprintf ppf
    "@[<v>jobs                 %d@,tasks executed       %d@,chunks stolen        %d@,busy time (total)    %.3fs@,max queue depth      %d@]"
    s.jobs s.tasks s.steals total_busy s.max_queue_depth
