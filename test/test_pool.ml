(* Tests for the domain pool: deterministic ordering, exception
   propagation, nested-map safety, the ICOST_JOBS=1 degenerate case, and
   the one-task futures (async/await). *)

module Pool = Icost_util.Pool

exception Boom of int

(* Run [f] under [n] pool jobs, then restore the sequential default so the
   rest of the suite is unaffected. *)
let with_jobs n f =
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let test_map_ordering () =
  with_jobs 4 (fun () ->
      let input = Array.init 1000 (fun i -> i) in
      let expected = Array.map (fun i -> i * i) input in
      let got = Pool.parallel_map (fun i -> i * i) input in
      Alcotest.(check (array int)) "parallel_map = Array.map" expected got;
      let goti = Pool.parallel_mapi (fun idx v -> idx + (v * 2)) input in
      Alcotest.(check (array int))
        "parallel_mapi = Array.mapi" (Array.mapi (fun idx v -> idx + (v * 2)) input)
        goti)

let test_map_list_ordering () =
  with_jobs 3 (fun () ->
      let input = List.init 257 (fun i -> i) in
      Alcotest.(check (list string))
        "parallel_map_list preserves order"
        (List.map string_of_int input)
        (Pool.parallel_map_list string_of_int input))

let test_exception_propagation () =
  with_jobs 4 (fun () ->
      let input = Array.init 100 (fun i -> i) in
      let raises () =
        Pool.parallel_map (fun i -> if i mod 30 = 10 then raise (Boom i) else i) input
      in
      (* indexes 10, 40, 70 all raise: the smallest index wins, so a
         parallel run fails exactly like the sequential one *)
      Alcotest.check_raises "smallest-index exception" (Boom 10) (fun () ->
          ignore (raises ())))

let test_exception_sequential_matches () =
  let input = Array.init 100 (fun i -> i) in
  let f i = if i >= 97 then raise (Boom i) else i in
  let outcome jobs =
    with_jobs jobs (fun () ->
        match Pool.parallel_map f input with
        | _ -> None
        | exception e -> Some e)
  in
  Alcotest.(check bool)
    "parallel raises the same exception as sequential" true
    (outcome 1 = outcome 4)

let test_nested_map () =
  with_jobs 4 (fun () ->
      let outer = Array.init 8 (fun i -> i) in
      let got =
        Pool.parallel_map
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.parallel_map (fun j -> (i * 10) + j) (Array.init 8 Fun.id)))
          outer
      in
      let expected =
        Array.map
          (fun i ->
            Array.fold_left ( + ) 0 (Array.map (fun j -> (i * 10) + j) (Array.init 8 Fun.id)))
          outer
      in
      Alcotest.(check (array int)) "nested parallel_map" expected got)

let test_jobs_one_degenerates () =
  with_jobs 1 (fun () ->
      Alcotest.(check int) "jobs clamps to 1" 1 (Pool.jobs ());
      let input = Array.init 64 (fun i -> i) in
      Alcotest.(check (array int))
        "sequential fallback" (Array.map succ input)
        (Pool.parallel_map succ input));
  Pool.set_jobs 0;
  Alcotest.(check int) "set_jobs 0 clamps to 1" 1 (Pool.jobs ());
  Pool.set_jobs 1

let test_iter_visits_all () =
  with_jobs 4 (fun () ->
      let hits = Array.make 500 0 in
      (* disjoint writes: each element owns its slot *)
      Pool.parallel_iter (fun i -> hits.(i) <- hits.(i) + 1) (Array.init 500 Fun.id);
      Alcotest.(check bool) "every element visited exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_chunks_partition () =
  with_jobs 4 (fun () ->
      let n = 1003 in
      let hits = Array.make n 0 in
      Pool.parallel_chunks n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "chunks cover [0,n) exactly once" true
        (Array.for_all (fun h -> h = 1) hits));
  (* empty range is a no-op *)
  Pool.parallel_chunks 0 (fun ~lo:_ ~hi:_ -> Alcotest.fail "called on empty range")

(* ---- one-task futures ---- *)

let test_async_jobs_one () =
  with_jobs 1 (fun () ->
      let ran = ref 0 in
      let pr = Pool.async (fun () -> incr ran; Domain.self ()) in
      Alcotest.(check int) "not run before await" 0 !ran;
      Alcotest.(check int) "no worker spawned" 0 (Pool.workers ());
      let d = Pool.await pr in
      Alcotest.(check int) "run once, at await" 1 !ran;
      Alcotest.(check bool) "on the awaiting domain" true (d = Domain.self ());
      Alcotest.(check int) "still no worker" 0 (Pool.workers ()))

let test_async_exception () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let pr = Pool.async (fun () -> raise (Boom jobs)) in
          Alcotest.check_raises "re-raised at await" (Boom jobs) (fun () ->
              ignore (Pool.await pr))))
    [ 1; 2 ]

(* Spin until [cond] holds; fail instead of hanging. *)
let wait_for what cond =
  let t0 = Unix.gettimeofday () in
  while not (cond ()) do
    if Unix.gettimeofday () -. t0 > 30. then Alcotest.failf "timed out: %s" what;
    Domain.cpu_relax ()
  done

let test_await_inline_when_busy () =
  with_jobs 3 (fun () ->
      (* occupy both workers, each spinning until released *)
      let started = Atomic.make 0 and release = Atomic.make false in
      let block () =
        Atomic.incr started;
        wait_for "release" (fun () -> Atomic.get release)
      in
      let blockers = [ Pool.async block; Pool.async block ] in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set release true;
          List.iter Pool.await blockers)
        (fun () ->
          wait_for "both workers busy" (fun () -> Atomic.get started = 2);
          let pr = Pool.async (fun () -> (Domain.self (), Atomic.get release)) in
          let d, released = Pool.await pr in
          Alcotest.(check bool) "ran inline" true (d = Domain.self ());
          Alcotest.(check bool) "without waiting for a worker" false released;
          Alcotest.(check int) "claimed entry left the queue" 0 (Pool.queued ())))

let test_nested_async_inline () =
  with_jobs 2 (fun () ->
      let started = Atomic.make false and go = Atomic.make false in
      let outer =
        Pool.async (fun () ->
            Atomic.set started true;
            wait_for "go" (fun () -> Atomic.get go);
            let inner = Pool.async (fun () -> Domain.self ()) in
            (* a worker's async is not queued: it runs at await, here *)
            let queued = Pool.queued () in
            (Domain.self (), queued, Pool.await inner))
      in
      (* the task started before anyone awaited it: it is on the worker *)
      wait_for "worker starts the task" (fun () -> Atomic.get started);
      Atomic.set go true;
      let here, queued, inner = Pool.await outer in
      Alcotest.(check bool) "outer ran on a worker" true (here <> Domain.self ());
      Alcotest.(check int) "nothing queued by the worker" 0 queued;
      Alcotest.(check bool) "inner ran on the same domain" true (inner = here))

let test_async_leaves_no_work () =
  with_jobs 2 (fun () ->
      let sum = ref 0 in
      for i = 1 to 1000 do
        sum := !sum + Pool.await (Pool.async (fun () -> i))
      done;
      Alcotest.(check int) "every result" 500500 !sum;
      Alcotest.(check int) "queue empty" 0 (Pool.queued ()))

let suite =
  ( "pool",
    [
      Alcotest.test_case "map ordering" `Quick test_map_ordering;
      Alcotest.test_case "list map ordering" `Quick test_map_list_ordering;
      Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
      Alcotest.test_case "exception parity with sequential" `Quick
        test_exception_sequential_matches;
      Alcotest.test_case "nested maps" `Quick test_nested_map;
      Alcotest.test_case "ICOST_JOBS=1 degeneracy" `Quick test_jobs_one_degenerates;
      Alcotest.test_case "iter visits all" `Quick test_iter_visits_all;
      Alcotest.test_case "chunk partition" `Quick test_chunks_partition;
      Alcotest.test_case "async at one job runs at await" `Quick test_async_jobs_one;
      Alcotest.test_case "async exception re-raised" `Quick test_async_exception;
      Alcotest.test_case "await inline while workers busy" `Quick
        test_await_inline_when_busy;
      Alcotest.test_case "nested async runs inline" `Quick test_nested_async_inline;
      Alcotest.test_case "async/await leaves no queued work" `Quick
        test_async_leaves_no_work;
    ] )
