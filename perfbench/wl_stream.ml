(* stream-long: Stream_core.analyze over gcc and then mcf, equal
   instruction counts, all 256 idealization subsets.  Each streamed
   analysis runs in a fresh child process, so its memory high-water mark
   and set-up are its own. *)

open Bench_util
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool
module Prng = Icost_util.Prng
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner
module Source = Icost_stream.Source
module Stream_core = Icost_stream.Core

let benches = [ "gcc"; "mcf" ]
let insns = 100_000
let warmup = 20_000
let cfg = Config.default
let seg = Stream_core.default_segment_insns

(* ---------- child: one streamed analysis ---------- *)

(* Replay the same instructions through the streaming simulator alone,
   timing only [Ooo.Stream.step] (items are pulled untimed, a segment at
   a time).  Returns (seconds, steps, simulated cycles). *)
let sim_replay program =
  let src = Source.of_program cfg program ~warmup ~max_insns:insns in
  let st = Ooo.Stream.create cfg in
  let buf = Array.make seg None in
  let secs = ref 0. and steps = ref 0 and more = ref true in
  while !more do
    let n = ref 0 in
    while !more && !n < seg do
      match src () with
      | Some item -> buf.(!n) <- Some item; incr n
      | None -> more := false
    done;
    let t0 = now () in
    for i = 0 to !n - 1 do
      match buf.(i) with
      | Some (d, e) -> ignore (Ooo.Stream.step st d e)
      | None -> ()
    done;
    secs := !secs +. (now () -. t0);
    steps := !steps + !n
  done;
  (!secs, !steps, Ooo.Stream.cycles st)

let pass ~bench ~spawned_at ~trace ~trace_file =
  Pool.set_jobs (nproc ());
  if trace then Telemetry.enable ();
  let tr = Tracer.create trace in
  let w = Workload.find_exn bench in
  let pulled = ref 0 and t_first = ref nan and marks = ref [] in
  let src_s = ref 0. and warm_s = ref 0. in
  let analysis_s = ref 0. in
  let r =
    Tracer.span tr ~layer:false "stream.bench" @@ fun () ->
    let src =
      Tracer.span tr "workloads.build" (fun () ->
          Source.of_program cfg (w.Workload.build ()) ~warmup ~max_insns:insns)
    in
    (* Every source pull is counted and, every [seg] pulls, stamped: the
       stamps give per-segment latencies.  Only the traced run times each
       pull. *)
    let pull =
      if trace then (fun () ->
        let t0 = now () in
        let x = src () in
        let d = now () -. t0 in
        if !pulled = 0 then warm_s := d else src_s := !src_s +. d;
        x)
      else src
    in
    let source () =
      let x = pull () in
      if !pulled mod seg = 0 then begin
        let t = now () in
        if !pulled = 0 then t_first := t;
        marks := t :: !marks
      end;
      incr pulled;
      x
    in
    let t0 = now () in
    let r = Tracer.span tr "stream.analyze" (fun () ->
        let r = Stream_core.analyze cfg source in
        Tracer.fold tr "stream.warmup" ~dur:!warm_s ~count:1;
        Tracer.fold tr "stream.source" ~dur:!src_s ~count:(!pulled - 1);
        r)
    in
    analysis_s := now () -. t0;
    r
  in
  let t_end = now () in
  let seg_ms =
    let stamps = Array.of_list (List.rev (t_end :: !marks)) in
    Array.init (Array.length stamps - 1) (fun i ->
        (stamps.(i + 1) -. stamps.(i)) *. 1e3)
  in
  emit_f "setup_s" (!t_first -. spawned_at);
  emit_f "stream_s" (t_end -. !t_first);
  emit "seg_ms" (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6f") seg_ms)));
  emit_i "instrs" r.Stream_core.instrs;
  emit_i "segments" r.segments;
  emit_i "cycles" r.cycles;
  emit_i "sim_cycles" r.sim_cycles;
  emit "digest" (digest_ints r.times);
  emit_f "peak_mb" (vmhwm_mb 0);
  if trace then begin
    (* counters first: the replay below must not feed them *)
    emit_counter "stream.instructions" ~outside:r.instrs ( = );
    emit_counter "stream.segments" ~outside:r.segments ( = );
    emit_counter "sim.instructions" ~outside:r.instrs ( = );
    (* each segment fragment is priced over all subsets at least once *)
    emit_counter "graph.sliced_evals" ~outside:r.segments ( >= );
    let sim_s, steps, cycles = sim_replay (w.Workload.build ()) in
    emit_f "analysis_s" !analysis_s;
    emit_f "warm_s" !warm_s;
    emit_f "source_s" !src_s;
    emit_f "sim_s" sim_s;
    emit_i "replay_steps" steps;
    emit_i "replay_cycles" cycles;
    let unattr, roots = Tracer.unattributed tr in
    emit_f "unattributed_s" unattr;
    emit_f "root_s" roots;
    List.iter (fun (n, s) -> emit_f ("self." ^ n) s) (Tracer.self_by_name tr);
    Tracer.write tr trace_file
  end

(* ---------- parent side ---------- *)

(* The per-layer metrics a traced run of this workload reports. *)
let layers =
  [ "stream.source_ms_per_minsn"; "stream.core_ms_per_minsn";
    "stream.sim_ms_per_minsn"; "stream.graph_ms_per_minsn"; "stream.segments";
    "stream.instrs"; "stream.sim_cycles" ]
  @ List.map (fun b -> "stream.peak_mb." ^ b) benches
  @ [ "trace.overhead_frac"; "trace.unattributed_frac"; "trace.counter_mismatches" ]

type bench_run = { b : string; kv : kv }

let run_pass ~seed ~trace =
  List.map
    (fun b ->
      let trace_file =
        Printf.sprintf "perfbench/out/trace-stream-long-%s-seed%d.json" b seed
      in
      match
        run_child
          [ "stream-pass"; "--bench"; b; "--trace"; (if trace then "1" else "0");
            "--trace-file"; trace_file ]
      with
      | Ok kv -> Ok { b; kv }
      | Error m -> Error m)
    benches

(* The streamed subset times must equal the monolithic graph's
   [eval_subsets] on a window small enough to build whole. *)
let monolithic_check ~n bench =
  let w = Workload.find_exn bench in
  let p =
    Runner.prepare { Runner.warmup; measure = n; benches = [ bench ] } w
  in
  let g = Build.of_sim cfg p.trace p.evts (Runner.baseline_run cfg p) in
  let sets = Array.init (1 lsl Category.count) (fun s -> s) in
  let mono = Graph.eval_subsets g sets in
  let streamed =
    Stream_core.analyze cfg
      (Source.of_program cfg (w.Workload.build ()) ~warmup ~max_insns:n)
  in
  let ok = ref true in
  Array.iteri
    (fun s t ->
      if not (check (t = streamed.times.(s))
                "stream-long %s n=%d subset %d: streamed %d, monolithic %d"
                bench n s streamed.times.(s) t)
      then ok := false)
    mono;
  !ok

let run ~seed ~seconds ~trace =
  let rng = Prng.create seed in
  let attempted = ref 0 and failed = ref 0 in
  let passes = ref [] in
  let one_pass ~trace =
    let runs = run_pass ~seed ~trace in
    attempted := !attempted + List.length runs;
    let good =
      List.filter_map
        (function
          | Ok { b; kv } ->
            let ok_c = check_exact (Printf.sprintf "stream-long/%s/cycles" b) (kv_str kv "cycles") in
            let ok_d = check_exact (Printf.sprintf "stream-long/%s/digest" b) (kv_str kv "digest") in
            if not (ok_c && ok_d) then incr failed;
            Some { b; kv }
          | Error m ->
            problem "%s" m;
            incr failed;
            None)
        runs
    in
    if List.length good = List.length benches then Some good else None
  in
  let t_start = now () in
  let traced = ref None in
  if trace then begin
    (match one_pass ~trace:false with Some p -> passes := [ (p, 0.) ] | None -> ());
    traced := one_pass ~trace:true
  end
  else
    while now () -. t_start < seconds do
      match with_steal (fun () -> one_pass ~trace:false) with
      | Some p, steal -> passes := (p, steal) :: !passes
      | None, _ -> ()
    done;
  if !passes = [] then failwith "stream-long: no pass completed";
  (* monolithic-size window, drawn from the seed *)
  let n = 12_000 + Prng.int rng 12_000 in
  List.iter
    (fun b ->
      incr attempted;
      if not (monolithic_check ~n b) then incr failed)
    benches;
  let all = List.rev_map fst !passes in
  let passes = List.map fst (quiet snd (List.rev !passes)) in
  let sum_of f p = sum_l (List.map (fun r -> f r.kv) p) in
  let minsn p = sum_of (fun kv -> float_of_int (kv_i kv "instrs")) p /. 1e6 in
  let work_ms p = sum_of (fun kv -> kv_f kv "stream_s") p *. 1e3 /. minsn p in
  (* segment-latency percentiles of each pass, then the median over passes *)
  let seg_pct q =
    median_l
      (List.map
         (fun p -> percentile (Array.concat (List.map (fun r -> kv_floats r.kv "seg_ms") p)) q)
         passes)
  in
  let e2e =
    [ ("work_ms", median_l (List.map work_ms passes));
      ("p50_ms", seg_pct 0.5);
      ("tail_ms", seg_pct 0.9);
      ("setup_s", median_l (List.map (sum_of (fun kv -> kv_f kv "setup_s")) all));
      ("peak_mb",
       median_l
         (List.map (fun p -> List.fold_left (fun m r -> Float.max m (kv_f r.kv "peak_mb")) 0. p)
            all)) ]
  in
  let layers =
    match !traced with
    | None -> []
    | Some p ->
      let mi = minsn p in
      let per_minsn k = sum_of (fun kv -> kv_f kv k) p *. 1e3 /. mi in
      let source = per_minsn "source_s" and sim = per_minsn "sim_s" in
      let core =
        sum_of (fun kv -> kv_f kv "analysis_s" -. kv_f kv "source_s" -. kv_f kv "warm_s") p
        *. 1e3 /. mi
      in
      List.iter
        (fun r ->
          ignore
            (check (kv_str r.kv "replay_cycles" = kv_str r.kv "sim_cycles")
               "stream-long %s: replayed simulator ends at %s cycles, analyze at %s"
               r.b (kv_str r.kv "replay_cycles") (kv_str r.kv "sim_cycles")))
        p;
      let counters = List.concat_map (fun r -> counter_facts r.b r.kv) p in
      let untraced = match passes with u :: _ -> work_ms u | [] -> nan in
      [ ("stream.source_ms_per_minsn", source);
        ("stream.core_ms_per_minsn", core);
        ("stream.sim_ms_per_minsn", sim);
        ("stream.graph_ms_per_minsn", core -. sim);
        ("stream.segments", sum_of (fun kv -> float_of_int (kv_i kv "segments")) p);
        ("stream.instrs", sum_of (fun kv -> float_of_int (kv_i kv "instrs")) p);
        ("stream.sim_cycles", sum_of (fun kv -> float_of_int (kv_i kv "sim_cycles")) p) ]
      @ List.map
          (fun r -> ("stream.peak_mb." ^ r.b, kv_f r.kv "peak_mb"))
          p
      @ [ ("trace.overhead_frac", (work_ms p -. untraced) /. untraced);
          ("trace.unattributed_frac",
           sum_of (fun kv -> kv_f kv "unattributed_s") p
           /. sum_of (fun kv -> kv_f kv "root_s") p);
          ("trace.counter_mismatches", float_of_int (mismatches counters)) ]
      @ self_rows (List.concat_map (fun r -> r.kv) p)
      @ counter_rows counters
  in
  { metrics = e2e @ layers;
    attempted = !attempted;
    failed = !failed;
    settings =
      [ ("benches", String.concat "," benches);
        ("insns_per_bench", string_of_int insns);
        ("warmup", string_of_int warmup);
        ("segment_insns", string_of_int seg);
        ("subsets", string_of_int (1 lsl Category.count));
        ("passes", Printf.sprintf "%d (timings over the %d without a burst of host steal)"
                     (List.length all) (List.length passes));
        ("monolithic_check_insns", string_of_int n);
        ("pool_jobs", string_of_int (nproc ()));
        ("tail_percentile", "90 (per-segment latency)") ] }
