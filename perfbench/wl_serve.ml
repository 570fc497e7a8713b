(* serve-mix: a router fronting 2 shards, started as a process of its
   own and driven closed-loop from this process over 2 connections (each caller waits for its reply, as
   `icost query` callers do).  Frames are drawn from a seeded universe:
   80% single icost ops, 15% batch frames of 8 icost ops, 5% breakdowns.
   Set lists are drawn Zipf-like from 1000 per target, so the hot head
   is answered from the reply cache and the tail, which overflows its
   256 entries per shard, from the session memo. *)

open Bench_util
module Protocol = Icost_service.Protocol
module Client = Icost_service.Client
module Router = Icost_service.Router
module Server = Icost_service.Server
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Breakdown = Icost_core.Breakdown
module Prng = Icost_util.Prng
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner

(* two targets per shard (FNV-1a of the preparation key) *)
let workloads = [| "gcc"; "parser"; "gzip"; "mcf" |]
let warmup = 2000
let measure = 800
let lists_per_target = 1000
let batch_frames = 1024
let batch_items = 8
let conns = 2
let setups = 3
let warmup_s = 2.

let target w =
  { Protocol.default_target with
    Protocol.workload = w; warmup; measure; engine = "graph" }

let targets = Array.map target workloads
let shard_of (tg : Protocol.target) = Router.shard_of_key ~shards:2 (Router.route_key tg)
let req op = { Protocol.req_id = 1; deadline_ms = None; op }

(* ---------- the frame universe ---------- *)

type frame = {
  line : string;
  op : Protocol.op;
  shard : int;
  tail : bool;  (** a single icost op from the Zipf tail (rank >= 500) *)
}

let spec_of_mask m =
  Category.Set.to_list m |> List.map Category.name |> String.concat ","

let full_spec = spec_of_mask Category.Set.full

(* 1000 distinct lists of 1-3 non-empty category sets per target. *)
let set_lists rng =
  let seen = Hashtbl.create 2048 and out = ref [] and n = ref 0 in
  while !n < lists_per_target do
    let k = 1 + Prng.int rng 3 in
    let l =
      List.init k (fun _ -> 1 + Prng.int rng 255)
      |> List.sort_uniq compare |> List.map spec_of_mask
    in
    let key = String.concat "|" l in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := l :: !out;
      incr n
    end
  done;
  Array.of_list (List.rev !out)

(* Zipf(1) over ranks 0..n-1, as a cumulative table. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw_rank cdf rng =
  let u = Prng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type universe = {
  frames : frame array;
  n_single : int;
  n_batch : int;
  cdf : float array;
}

let universe seed =
  let rng = Prng.create seed in
  let lists = Array.map (fun _ -> set_lists rng) targets in
  let cdf = zipf_cdf lists_per_target in
  let mk ?(tail = false) tg op =
    { line = Protocol.encode_request (req op); op; shard = shard_of tg; tail }
  in
  let singles =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun t tg ->
              Array.mapi
                (fun r sets ->
                  mk ~tail:(r >= lists_per_target / 2) tg
                    (Protocol.Icost { target = tg; sets }))
                lists.(t))
            targets))
  in
  let batches =
    Array.init batch_frames (fun _ ->
        let t = Prng.int rng (Array.length targets) in
        let ops =
          List.init batch_items (fun _ ->
              Protocol.Icost
                { target = targets.(t); sets = lists.(t).(draw_rank cdf rng) })
        in
        mk targets.(t) (Protocol.Batch { ops }))
  in
  let breakdowns =
    Array.concat
      (Array.to_list
         (Array.map
            (fun tg ->
              Array.of_list
                (List.map
                   (fun c -> mk tg (Protocol.Breakdown { target = tg; focus = Category.name c }))
                   Category.all))
            targets))
  in
  { frames = Array.concat [ singles; batches; breakdowns ];
    n_single = Array.length singles;
    n_batch = Array.length batches;
    cdf }

(* The frame a connection sends next: 80% single, 15% batch, 5% breakdown. *)
let next_frame u rng =
  let x = Prng.float rng in
  if x < 0.80 then
    (Prng.int rng (Array.length targets) * lists_per_target) + draw_rank u.cdf rng
  else if x < 0.95 then u.n_single + Prng.int rng u.n_batch
  else
    u.n_single + u.n_batch
    + Prng.int rng (Array.length u.frames - u.n_single - u.n_batch)

(* ---------- the daemon ---------- *)

let socket () = Printf.sprintf "perfbench/out/s%d.sock" (Unix.getpid ())

let remove_if_exists p = if Sys.file_exists p then Sys.remove p

let status c =
  match (Client.call c (req Protocol.Status)).body with
  | Ok (Protocol.R_status s) -> s
  | _ -> failwith "serve-mix: status failed"

type daemon = { pid : int; ctrl : Client.t; setup_s : float }

(* The daemon process (main.exe serve-daemon): the router and, through
   its supervisor, the 2 shards. *)
let daemon ~sock =
  ignore
    (Router.run
       { Router.default_opts with
         socket = sock; shards = 2;
         shard = { Server.default_opts with workers = 2 } })

(* Start the daemon as a fresh process, so none of this process's heap
   counts toward its memory, wait until it answers, and prime every
   target (a breakdown plus the full-set icost, which memoizes all 256
   subsets). *)
let start_daemon ~sock ~on_reply =
  List.iter remove_if_exists [ sock; Router.shard_socket sock 0; Router.shard_socket sock 1 ];
  flush_all ();
  let t0 = now () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "serve-daemon"; "--socket"; sock |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match
    let ctrl = Client.connect ~retry_for:30. ~socket:sock () in
    Array.iter
      (fun tg ->
        List.iter
          (fun op -> on_reply op (Client.call ctrl (req op)))
          [ Protocol.Breakdown { target = tg; focus = "dl1" };
            Protocol.Icost { target = tg; sets = [ full_spec ] } ])
      targets;
    ctrl
  with
  | ctrl -> { pid; ctrl; setup_s = now () -. t0 }
  | exception e ->
    Router.reap ~grace_s:1. [ pid ];
    raise e

let stop_daemon d =
  (try ignore (Client.call d.ctrl (req Protocol.Shutdown)) with _ -> ());
  Client.close d.ctrl;
  Router.reap ~grace_s:5. [ d.pid ]

(* Router plus shard processes (router -> supervisor -> shards). *)
let daemon_peak_mb d =
  let shards = List.concat_map children_of (children_of d.pid) in
  sum_l (List.map vmhwm_mb (d.pid :: shards))

(* ---------- the closed loop ---------- *)

type floats = { mutable a : float array; mutable n : int }

let push f x =
  if f.n = Array.length f.a then begin
    let b = Array.make (2 * f.n + 1024) 0. in
    Array.blit f.a 0 b 0 f.n;
    f.a <- b
  end;
  f.a.(f.n) <- x;
  f.n <- f.n + 1

type replies = {
  lock : Mutex.t;
  first : string option array;  (** first reply seen per frame *)
  seen : int array;  (** times each frame was sent *)
  mutable diverged : int;
  mutable lost : int;  (** exchanges that raised (the connection stops) *)
}

(* Latency and throughput are taken per 1-second window and reported as
   the median over the phase's whole windows, leaving out those in which
   the host stole notably more CPU time than in the quietest ({!quiet}),
   so a burst of interference shifts a few windows, not the result. *)
type phase = {
  frames_done : int;
  samples : int;  (** latency samples in the windows used *)
  qps : float;
  p50_ms : float;
  p99_ms : float;
}

(* Run [conns] closed-loop connections for [seconds].  [connect] opens a
   connection's links; [exchange links k] sends frame [k] and returns
   its reply line.  With a live tracer every request is a span under its
   connection's container span. *)
let closed_loop u ~seed ~seconds ~replies ~tr ~connect ~exchange ~close =
  let full = max 1 (int_of_float seconds) in
  let lats = Array.init conns (fun _ -> Array.init (full + 2) (fun _ -> { a = [||]; n = 0 })) in
  let done_ = Array.make conns 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let worker c =
    let links = connect () in
    let rng = Prng.create ((seed * 7919) + c + 1) in
    let traced = Tracer.enabled tr in
    let conn_id = if traced then Tracer.reserve tr else -1 in
    let exchange_one () =
      let k = next_frame u rng in
      let t0 = now () in
      let reply = exchange links k in
      let t1 = now () in
      let w = min (full + 1) (int_of_float (t1 -. t_start)) in
      push lats.(c).(w) ((t1 -. t0) *. 1e3);
      done_.(c) <- done_.(c) + 1;
      Mutex.protect replies.lock (fun () ->
          replies.seen.(k) <- replies.seen.(k) + 1;
          match replies.first.(k) with
          | None -> replies.first.(k) <- Some reply
          | Some r ->
            if not (String.equal r reply) then replies.diverged <- replies.diverged + 1);
      if traced then
        Tracer.record tr ~name:"service.request" ~req:(Tracer.reserve tr)
          ~parent:conn_id ~t0 ~t1 ()
    in
    (try
       while now () < deadline do
         exchange_one ()
       done
     with e ->
       Mutex.protect replies.lock (fun () -> replies.lost <- replies.lost + 1);
       log "serve-mix: connection %d failed: %s" c (Printexc.to_string e));
    Tracer.record tr ~layer:false ~id:conn_id ~name:"serve.connection"
      ~req:conn_id ~parent:(-1) ~t0:t_start ~t1:(now ()) ();
    try close links with _ -> ()
  in
  let threads = List.init conns (fun c -> Thread.create worker c) in
  (* host steal at each window edge *)
  let edges =
    Array.init (full + 1) (fun w ->
        let wait = t_start +. float_of_int w -. now () in
        if wait > 0. then Thread.delay wait;
        host_steal ())
  in
  List.iter Thread.join threads;
  let window w =
    let (s0, t0), (s1, t1) = (edges.(w), edges.(w + 1)) in
    ( Array.concat (Array.to_list (Array.map (fun l -> Array.sub l.(w).a 0 l.(w).n) lats)),
      if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0. )
  in
  let used = List.map fst (quiet snd (List.init full window)) in
  let over_windows f = median_l (List.map f used) in
  { frames_done = Array.fold_left ( + ) 0 done_;
    samples = List.fold_left (fun acc lat -> acc + Array.length lat) 0 used;
    qps = over_windows (fun lat -> float_of_int (Array.length lat));
    p50_ms = over_windows (fun lat -> percentile lat 0.5);
    p99_ms = over_windows (fun lat -> percentile lat 0.99) }

let via_router u ~sock =
  let connect () = Client.connect ~socket:sock () in
  let exchange c k =
    Client.send_line c u.frames.(k).line;
    Client.recv_line c
  in
  (connect, exchange, Client.close)

let direct_to_shards u ~sock =
  let connect () =
    Array.init 2 (fun i -> Client.connect ~socket:(Router.shard_socket sock i) ())
  in
  let exchange links k =
    let c = links.(u.frames.(k).shard) in
    Client.send_line c u.frames.(k).line;
    Client.recv_line c
  in
  (connect, exchange, Array.iter Client.close)

(* ---------- in-process answers ---------- *)

let set_of_spec spec =
  String.split_on_char ',' spec
  |> List.map (fun n -> Option.get (Category.of_name n))
  |> Category.Set.of_list

let oracle_table () =
  let tbl = Hashtbl.create 4 in
  fun (tg : Protocol.target) ->
    match Hashtbl.find_opt tbl tg.workload with
    | Some o -> o
    | None ->
      let p =
        Runner.prepare { Runner.warmup; measure; benches = [ tg.workload ] }
          (Workload.find_exn tg.workload)
      in
      let o = Runner.graph_oracle Config.default p in
      Hashtbl.add tbl tg.workload o;
      o

let rec answer oracle_of (op : Protocol.op) : Protocol.result_body =
  match op with
  | Protocol.Icost { target; sets } ->
    let o = oracle_of target in
    Protocol.R_icost
      { baseline = Cost.query o Category.Set.empty;
        rows =
          List.map
            (fun spec ->
              let set = set_of_spec spec in
              let ic = Cost.icost_ie o set in
              { Protocol.set_name = Category.Set.name set;
                set_cost = Cost.cost o set; set_icost = ic;
                set_class = Cost.interaction_name (Cost.classify ic) })
            sets }
  | Protocol.Breakdown { target; focus } ->
    let bd =
      Breakdown.focus ~oracle:(oracle_of target)
        ~focus_cat:(Option.get (Category.of_name focus))
    in
    Protocol.R_breakdown
      { baseline = bd.baseline_cycles;
        rows =
          List.map
            (fun (r : Breakdown.row) ->
              { Protocol.row_label = Breakdown.row_label r;
                row_percent = r.percent; row_cycles = r.cycles })
            bd.rows }
  | Protocol.Batch { ops } ->
    Protocol.R_batch { results = List.map (fun op -> Ok (answer oracle_of op)) ops }
  | _ -> invalid_arg "answer"

let rec body_ok = function
  | Ok (Protocol.R_batch { results }) -> List.for_all body_ok results
  | Ok _ -> true
  | Error _ -> false

(* Mean microseconds per call of [f] over [xs], repeated for at least
   0.2 s. *)
let us_per_call f xs =
  let n = ref 0 and t0 = now () in
  while now () -. t0 < 0.2 do
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    n := !n + Array.length xs
  done;
  (now () -. t0) *. 1e6 /. float_of_int !n

(* ---------- the run ---------- *)

(* The per-layer metrics a traced run of this workload reports. *)
let layers =
  [ "service.rtt_direct_p50_us"; "service.router_hop_us"; "service.decode_us";
    "service.encode_us"; "service.cache_hit_ratio"; "service.cache_hits";
    "service.cache_misses"; "service.cache_evictions"; "service.miss_answer_us";
    "service.requests"; "service.requests_total"; "service.queue_depth_max";
    "service.respawns"; "service.failovers"; "trace.overhead_frac";
    "trace.unattributed_frac"; "trace.counter_mismatches" ]

let run ~seed ~seconds ~trace =
  let shards_used = Array.map shard_of targets |> Array.to_list |> List.sort_uniq compare in
  if List.length shards_used <> 2 then failwith "serve-mix: targets do not cover both shards";
  let u = universe seed in
  let sock = socket () in
  let attempted = ref 0 and failed = ref 0 in
  let on_reply op (r : Protocol.reply) =
    incr attempted;
    if not (body_ok r.body) then begin
      incr failed;
      problem "serve-mix priming: %s failed" (Protocol.encode_request (req op))
    end;
    match (op, r.body) with
    | Protocol.Breakdown { target; _ }, Ok (Protocol.R_breakdown { baseline; _ }) ->
      ignore
        (check_exact (Printf.sprintf "serve-mix/%s/baseline" target.workload)
           (Printf.sprintf "%.17g" baseline))
    | _ -> ()
  in
  (* set-up several times; the last daemon serves the measured phases *)
  let setup_times = ref [] in
  let rec boot i =
    let d = start_daemon ~sock ~on_reply in
    setup_times := d.setup_s :: !setup_times;
    if i < setups then (stop_daemon d; boot (i + 1)) else d
  in
  let d = boot 1 in
  let replies =
    { lock = Mutex.create ();
      first = Array.make (Array.length u.frames) None;
      seen = Array.make (Array.length u.frames) 0;
      diverged = 0;
      lost = 0 }
  in
  let off = Tracer.create false in
  let phase ?(tr = off) seconds (connect, exchange, close) =
    closed_loop u ~seed ~seconds ~replies ~tr ~connect ~exchange ~close
  in
  let result =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    (* let the reply caches fill before anything is timed *)
    ignore (phase warmup_s (via_router u ~sock));
    if not trace then begin
      let p = phase seconds (via_router u ~sock) in
      `Plain (p, daemon_peak_mb d)
    end
    else begin
      let third = Float.max 1. (seconds /. 3.) in
      let untraced = phase third (via_router u ~sock) in
      let tr = Tracer.create true in
      let before = status d.ctrl in
      (* sample the queue depth while the traced phase runs *)
      let stop = Atomic.make false and qmax = ref 0 and polls = ref 0 in
      let poller =
        Thread.create
          (fun () ->
            let c = Client.connect ~socket:sock () in
            while not (Atomic.get stop) do
              let s = status c in
              incr polls;
              qmax := max !qmax s.queue_depth;
              Thread.delay 0.05
            done;
            Client.close c)
          ()
      in
      let traced = phase ~tr third (via_router u ~sock) in
      Atomic.set stop true;
      Thread.join poller;
      let after = status d.ctrl in
      let direct = phase third (direct_to_shards u ~sock) in
      `Traced (untraced, traced, direct, tr, before, after, !qmax, !polls)
    end
  in
  (* every frame's replies were byte-identical to its first reply, and
     no first reply was an error *)
  attempted := !attempted + Array.fold_left ( + ) 0 replies.seen + replies.lost;
  failed := !failed + replies.diverged + replies.lost;
  ignore (check (replies.diverged = 0) "serve-mix: %d replies diverged from the first seen" replies.diverged);
  ignore (check (replies.lost = 0) "serve-mix: %d connections failed" replies.lost);
  let decoded = ref [] in
  Array.iteri
    (fun k first ->
      Option.iter
        (fun line ->
          match Protocol.decode_reply line with
          | Ok r ->
            decoded := r :: !decoded;
            if not (check (body_ok r.body) "serve-mix: error reply %s" line) then
              failed := !failed + replies.seen.(k)
          | Error m ->
            ignore (check false "serve-mix: undecodable reply (%s)" m);
            failed := !failed + replies.seen.(k))
        first)
    replies.first;
  (* a seeded sample must match answers computed in-process *)
  let oracle_of = oracle_table () in
  let rng = Prng.create (seed + 1) in
  let sampled = ref 0 and tries = ref 0 in
  while !sampled < 48 && !tries < 10_000 do
    incr tries;
    let k = Prng.int rng (Array.length u.frames) in
    match replies.first.(k) with
    | Some line -> (
      incr sampled;
      let want = answer oracle_of u.frames.(k).op in
      match Protocol.decode_reply line with
      | Ok r ->
        if not (check (r.body = Ok want) "serve-mix: reply differs from in-process answer: %s"
                  u.frames.(k).line)
        then incr failed
      | Error _ -> ())
    | None -> ()
  done;
  let e2e, layers =
    match result with
    | `Plain (p, peak) ->
      ( [ ("work_ms", 1e6 /. p.qps);
          ("p50_ms", p.p50_ms);
          ("tail_ms", p.p99_ms);
          ("setup_s", median_l !setup_times);
          ("peak_mb", peak) ],
        [] )
    | `Traced (untraced, traced, direct, tr, (before : Protocol.status_body),
               (after : Protocol.status_body), qmax, polls) ->
      let hits = after.cache_hits - before.cache_hits in
      let misses = after.cache_misses - before.cache_misses in
      let requests_total = after.requests_total - before.requests_total in
      (* the router counts every line it receives: the traced frames, the
         poller's status calls and the closing status call *)
      let expected_total = traced.frames_done + polls + 1 in
      let p50_router = untraced.p50_ms and p50_direct = direct.p50_ms in
      (* in-process answers to tail ops from a primed, memoized oracle *)
      let tail_ops =
        Array.of_list
          (List.filter_map
             (fun f -> if f.tail then Some f.op else None)
             (Array.to_list u.frames))
      in
      Array.iter
        (fun tg ->
          ignore (Cost.icost_ie (oracle_of tg) Category.Set.full))
        targets;
      let miss_us = us_per_call (answer oracle_of) tail_ops in
      let decode_us =
        us_per_call Protocol.decode_request (Array.map (fun f -> f.line) u.frames)
      in
      let encode_us = us_per_call Protocol.encode_reply (Array.of_list !decoded) in
      let unattr, roots = Tracer.unattributed tr in
      Tracer.write tr (Printf.sprintf "perfbench/out/trace-serve-mix-seed%d.json" seed);
      ( [],
        [ ("service.rtt_direct_p50_us", p50_direct *. 1e3);
          ("service.router_hop_us", (p50_router -. p50_direct) *. 1e3);
          ("service.decode_us", decode_us);
          ("service.encode_us", encode_us);
          ("service.cache_hit_ratio",
           if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
          ("service.cache_hits", float_of_int hits);
          ("service.cache_misses", float_of_int misses);
          ("service.cache_evictions", float_of_int (after.cache_evictions - before.cache_evictions));
          ("service.miss_answer_us", miss_us);
          ("service.requests", float_of_int traced.frames_done);
          ("service.requests_total", float_of_int requests_total);
          ("service.queue_depth_max", float_of_int qmax);
          ("service.respawns", float_of_int after.respawns);
          ("service.failovers", float_of_int after.failovers);
          ("trace.overhead_frac", (untraced.qps /. traced.qps) -. 1.);
          ("trace.unattributed_frac", unattr /. roots);
          ("trace.counter_mismatches",
           if expected_total = requests_total then 0. else 1.) ]
        @ List.map (fun (n, s) -> ("self." ^ n ^ "_ms", s *. 1e3)) (Tracer.self_by_name tr)
        @ counter_rows
            [ ("service.requests_total",
               Printf.sprintf "%d %d %b" requests_total expected_total
                 (requests_total = expected_total)) ] )
  in
  { metrics = e2e @ layers;
    attempted = !attempted;
    failed = !failed;
    settings =
      [ ("targets",
         String.concat ","
           (Array.to_list
              (Array.map (fun tg -> Printf.sprintf "%s@shard%d" tg.Protocol.workload (shard_of tg)) targets)));
        ("warmup", string_of_int warmup);
        ("measure", string_of_int measure);
        ("engine", "graph");
        ("shards", "2");
        ("shard_workers", "2");
        ("connections", string_of_int conns);
        ("loop", "closed");
        ("mix", "80% icost, 15% batch x8, 5% breakdown");
        ("set_lists_per_target", string_of_int lists_per_target);
        ("zipf_exponent", "1.0");
        ("setups", string_of_int setups);
        ("tail_percentile", "99 (per-request latency, median over 1 s windows)");
        ("latency_samples",
         string_of_int (match result with `Plain (p, _) -> p.samples
                                          | `Traced (_, t, _, _, _, _, _, _) -> t.samples)) ] }
