(** Fixed-size domain pool.  See pool.mli for the contract.

    Structure: a process-global bank of worker domains blocked on a
    mutex/condition-protected job queue.  A parallel call turns into one
    "batch" closure that pulls element indices from an atomic counter; the
    batch is enqueued once per worker and also run by the submitting
    domain, so the submitter never idles and a pool of size 1 degenerates
    to a plain sequential loop.  Workers that pick the batch up after the
    counter is exhausted return immediately, so stale queue entries are
    harmless. *)

(* Is the current domain a pool worker?  Workers run nested parallel calls
   sequentially: a worker blocked on an inner fan-out could otherwise
   deadlock the pool when every worker does the same. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Slot index of the current domain in the pool: 0 is the submitting
   domain, workers are 1..jobs-1.  Only used to attribute telemetry. *)
let slot_ix : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let c_batches = Telemetry.counter "pool.batches"
let c_tasks = Telemetry.counter "pool.tasks"
let c_queue_wait = Telemetry.counter "pool.queue_wait_us"

let default_jobs () =
  let recommended = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "ICOST_JOBS" with
  | None -> recommended
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> recommended)

let configured_jobs : int option ref = ref None

let jobs () =
  match !configured_jobs with
  | Some n -> n
  | None ->
    let n = default_jobs () in
    configured_jobs := Some n;
    n

type pool = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  slot_tasks : Telemetry.counter array;  (** tasks pulled, per domain slot *)
  slot_busy : Telemetry.counter array;  (** batch-body microseconds, per slot *)
}

let state : pool option ref = ref None

let worker_loop (p : pool) ix () =
  Domain.DLS.set in_worker true;
  Domain.DLS.set slot_ix ix;
  let rec loop () =
    Mutex.lock p.mutex;
    while Queue.is_empty p.queue && not p.stop do
      Condition.wait p.work_ready p.mutex
    done;
    if Queue.is_empty p.queue && p.stop then Mutex.unlock p.mutex
    else begin
      let job = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      job ();
      loop ()
    end
  in
  loop ()

let shutdown () =
  match !state with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.work_ready;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.domains;
    state := None

let () = at_exit shutdown

(* The pool holds [jobs () - 1] workers; the submitting domain is the
   remaining job. *)
let ensure_pool () : pool =
  match !state with
  | Some p -> p
  | None ->
    let p =
      {
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        queue = Queue.create ();
        stop = false;
        domains = [];
        slot_tasks =
          Array.init (jobs ()) (fun i ->
              Telemetry.counter (Printf.sprintf "pool.slot%d.tasks" i));
        slot_busy =
          Array.init (jobs ()) (fun i ->
              Telemetry.counter (Printf.sprintf "pool.slot%d.busy_us" i));
      }
    in
    p.domains <-
      List.init (jobs () - 1) (fun i -> Domain.spawn (worker_loop p (i + 1)));
    state := Some p;
    p

let set_jobs n =
  shutdown ();
  configured_jobs := Some (max 1 n)

(* Run [work 0 .. work (total-1)] across the pool, returning when all are
   done.  [work] must not raise (callers wrap exceptions). *)
let run_batch (total : int) (work : int -> unit) =
  let p = ensure_pool () in
  let sp = Telemetry.start_span "pool.batch" in
  Telemetry.incr c_batches;
  let t_submit = if Telemetry.enabled () then Unix.gettimeofday () else 0. in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let done_mutex = Mutex.create () in
  let all_done = Condition.create () in
  let batch () =
    let slot = Domain.DLS.get slot_ix in
    (* queue wait: submit-to-pickup latency, attributed to worker slots
       only (the submitting domain starts its share immediately) *)
    let t0 =
      if Telemetry.enabled () then begin
        let t = Unix.gettimeofday () in
        if slot > 0 then
          Telemetry.add c_queue_wait (int_of_float ((t -. t_submit) *. 1e6));
        t
      end
      else 0.
    in
    let tasks = p.slot_tasks.(slot) in
    let rec pull () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        work i;
        Telemetry.incr tasks;
        if Atomic.fetch_and_add completed 1 + 1 = total then begin
          Mutex.lock done_mutex;
          Condition.broadcast all_done;
          Mutex.unlock done_mutex
        end;
        pull ()
      end
    in
    pull ();
    if Telemetry.enabled () then
      Telemetry.add p.slot_busy.(slot)
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  in
  Mutex.lock p.mutex;
  for _ = 1 to List.length p.domains do
    Queue.add batch p.queue
  done;
  Condition.broadcast p.work_ready;
  Mutex.unlock p.mutex;
  batch ();
  Mutex.lock done_mutex;
  while Atomic.get completed < total do
    Condition.wait all_done done_mutex
  done;
  Mutex.unlock done_mutex;
  Telemetry.add c_tasks total;
  Telemetry.end_span sp ~attrs:[ ("tasks", string_of_int total) ]

let sequential () = jobs () = 1 || Domain.DLS.get in_worker

(* ---- one-task futures ----

   A promise's task runs exactly once, on whichever domain first wins
   [claimed]: the worker that pops its queue entry, or the awaiting
   domain if no worker has started it yet.  An awaiter that claims the
   task also takes its entry out of the queue, so inline runs leave no
   work behind. *)

type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  task : unit -> 'a;
  claimed : bool Atomic.t;
  mutable entry : (unit -> unit) option;  (** queue entry, if queued *)
  pm : Mutex.t;
  settled : Condition.t;
  mutable outcome : 'a outcome;  (** guarded by [pm] *)
}

let run_task pr =
  let o =
    match pr.task () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock pr.pm;
  pr.outcome <- o;
  Condition.broadcast pr.settled;
  Mutex.unlock pr.pm

let async (task : unit -> 'a) : 'a promise =
  let pr =
    {
      task;
      claimed = Atomic.make false;
      entry = None;
      pm = Mutex.create ();
      settled = Condition.create ();
      outcome = Pending;
    }
  in
  if not (sequential ()) then begin
    let p = ensure_pool () in
    let entry () = if Atomic.compare_and_set pr.claimed false true then run_task pr in
    pr.entry <- Some entry;
    Mutex.lock p.mutex;
    Queue.add entry p.queue;
    Condition.signal p.work_ready;
    Mutex.unlock p.mutex
  end;
  pr

let await (pr : 'a promise) : 'a =
  if Atomic.compare_and_set pr.claimed false true then begin
    (match (pr.entry, !state) with
     | Some entry, Some p ->
       Mutex.lock p.mutex;
       let rest = Queue.create () in
       Queue.iter (fun j -> if j != entry then Queue.add j rest) p.queue;
       Queue.clear p.queue;
       Queue.transfer rest p.queue;
       Mutex.unlock p.mutex
     | _ -> ());
    run_task pr
  end;
  Mutex.lock pr.pm;
  let rec settle () =
    match pr.outcome with
    | Pending ->
      Condition.wait pr.settled pr.pm;
      settle ()
    | o -> o
  in
  let o = settle () in
  Mutex.unlock pr.pm;
  match o with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let workers () = match !state with Some p -> List.length p.domains | None -> 0

let queued () =
  match !state with
  | None -> 0
  | Some p ->
    Mutex.lock p.mutex;
    let n = Queue.length p.queue in
    Mutex.unlock p.mutex;
    n

let parallel_mapi (f : int -> 'a -> 'b) (a : 'a array) : 'b array =
  let n = Array.length a in
  if n <= 1 || sequential () then Array.mapi f a
  else begin
    let results : 'b option array = Array.make n None in
    let err_mutex = Mutex.create () in
    (* first error by element index, so a parallel run raises exactly what
       the sequential run would have raised first *)
    let err : (int * exn) option ref = ref None in
    let work i =
      match f i a.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
        Mutex.lock err_mutex;
        (match !err with
         | Some (j, _) when j < i -> ()
         | _ -> err := Some (i, e));
        Mutex.unlock err_mutex
    in
    run_batch n work;
    match !err with
    | Some (_, e) -> raise e
    | None -> Array.map Option.get results
  end

let parallel_map f a = parallel_mapi (fun _ x -> f x) a

let parallel_iter f a = ignore (parallel_map (fun x -> f x) a : unit array)

let parallel_map_list f l = Array.to_list (parallel_map f (Array.of_list l))

let parallel_chunks n (body : lo:int -> hi:int -> unit) =
  if n > 0 then begin
    let j = min (jobs ()) n in
    if j <= 1 || Domain.DLS.get in_worker then body ~lo:0 ~hi:n
    else
      parallel_iter
        (fun (lo, hi) -> if lo < hi then body ~lo ~hi)
        (Array.init j (fun k -> (k * n / j, (k + 1) * n / j)))
  end
