(* cold-batch: a fixed list of cold in-process analyses, each starting
   from its own Runner.prepare, composed from the layers' public calls so
   the traced run can time each call.  Each analysis runs in a fresh
   child process, so it starts cold and its memory high-water mark is its
   own.

   The pool runs at 1 job.  At nproc jobs on a 2-vCPU VM a pool-parallel
   step waits for the slower domain, so one analysis varied by up to 40%
   between runs and its peak memory by 10% (the garbage collector's
   timing across domains); the 10-run spread of the pass time reached
   the bound.  The traced run still prices the parallel path:
   util.pool_speedup times the same sweep at 1 job and at nproc jobs. *)

let jobs = 1

open Bench_util
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Breakdown = Icost_core.Breakdown
module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool
module Prng = Icost_util.Prng
module Multisim = Icost_sim.Multisim
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Profile = Icost_profiler.Profile
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner
module Sweep = Icost_sensitivity.Sweep
module Param = Icost_sensitivity.Param

type kind = Graph_bd | Multisim_bd | Profiler_bd | Sweep_graph

let kind_name = function
  | Graph_bd -> "graph"
  | Multisim_bd -> "multisim"
  | Profiler_bd -> "profiler"
  | Sweep_graph -> "sweep"

let items =
  [| ("gcc", Graph_bd); ("gcc", Multisim_bd); ("gcc", Profiler_bd);
     ("mcf", Graph_bd); ("mcf", Multisim_bd); ("mcf", Profiler_bd);
     ("gcc", Sweep_graph) |]

let item_key (b, k) = Printf.sprintf "cold-batch/%s/%s" b (kind_name k)
let warmup = 200_000
let measure = 30_000
let settings b = { Runner.warmup; measure; benches = [ b ] }

(* Breakdowns price the 4-cycle-L1 machine with dl1 in focus (the
   paper's Table 4a); the sweep varies the base machine. *)
let bd_cfg = Config.loop_dl1
let focus_cat = Option.get (Category.of_name "dl1")
let sweep_specs = [ "window=8..512"; "mem_lat=25..200:25"; "dl1_lat=1..11:1" ]

let sweep_axes () =
  List.map
    (fun s -> match Param.parse_axis s with Ok a -> a | Error m -> failwith m)
    sweep_specs

(* %h prints the exact bits of a float, so equal digests mean
   bit-identical results. *)
let digest_breakdown (bd : Breakdown.t) =
  Printf.sprintf "%h" bd.baseline_cycles
  :: List.map
       (fun (r : Breakdown.row) ->
         Printf.sprintf "%s:%h:%h" (Breakdown.row_label r) r.percent r.cycles)
       bd.rows
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let digest_sweep (r : Sweep.result) =
  Printf.sprintf "%h" r.sw_baseline
  :: List.concat_map
       (fun (cv : Sweep.curve) ->
         List.map
           (fun (pt : Sweep.point) ->
             match pt.pt_outcome with
             | Ok c -> Printf.sprintf "%d:%h" pt.pt_value c
             | Error e -> Printf.sprintf "%d:%s" pt.pt_value (Printexc.to_string e))
           cv.cv_points)
       r.sw_curves
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* Time and count the calls an oracle answers.  The sum is folded into
   the enclosing breakdown span afterwards, so it does not matter which
   domain a call arrives on. *)
type tally = { lock : Mutex.t; mutable secs : float; mutable subsets : int; mutable calls : int }

let tally () = { lock = Mutex.create (); secs = 0.; subsets = 0; calls = 0 }

let counted (t : tally) (o : Cost.oracle) : Cost.oracle =
  let timed n f x =
    let t0 = now () in
    let r = f x in
    let d = now () -. t0 in
    Mutex.protect t.lock (fun () ->
        t.secs <- t.secs +. d;
        t.subsets <- t.subsets + n;
        t.calls <- t.calls + 1);
    r
  in
  { Cost.point = (fun s -> timed 1 o.point s);
    batch = Option.map (fun b ss -> timed (Array.length ss) b ss) o.batch }

(* ---------- child: one cold analysis ---------- *)

type layer_counts = {
  mutable multisim_subsets : int;
  mutable graph_batches : int;
  mutable nodes : int;
  mutable edges : int;
  mutable points : int;
}

let analyze tr counts (b, kind) =
  let w = Workload.find_exn b in
  let t0 = now () in
  let p = Tracer.span tr "isa.prepare" (fun () -> Runner.prepare (settings b) w) in
  let prepare_s = now () -. t0 in
  let breakdown layer (t : tally) o =
    Tracer.span tr "core.breakdown" (fun () ->
        let bd = Breakdown.focus ~oracle:(Cost.memoize (counted t o)) ~focus_cat in
        Tracer.fold tr layer ~dur:t.secs ~count:t.calls;
        bd)
  in
  let baseline () = Tracer.span tr "sim.baseline" (fun () -> Runner.baseline_run bd_cfg p) in
  let of_bd (bd : Breakdown.t) = (digest_breakdown bd, bd.baseline_cycles) in
  let res =
    match kind with
    | Graph_bd ->
      let r = baseline () in
      let g = Tracer.span tr "depgraph.build" (fun () -> Build.of_sim bd_cfg p.trace p.evts r) in
      counts.nodes <- Graph.num_nodes g;
      counts.edges <- Graph.num_edges g;
      let t = tally () in
      let res = of_bd (breakdown "depgraph.eval" t (Build.oracle g)) in
      counts.graph_batches <- t.calls;
      res
    | Multisim_bd ->
      let t = tally () in
      let res =
        of_bd (breakdown "sim.multisim" t (Multisim.oracle bd_cfg p.trace p.evts))
      in
      counts.multisim_subsets <- t.subsets;
      res
    | Profiler_bd ->
      let r = baseline () in
      let prof =
        Tracer.span tr "profiler.profile" (fun () ->
            Profile.profile bd_cfg p.program p.trace p.evts r)
      in
      of_bd (breakdown "profiler.eval" (tally ()) (Profile.oracle prof))
    | Sweep_graph ->
      let r =
        Tracer.span tr "sensitivity.sweep" (fun () ->
            Sweep.run ~engine:Sweep.Graph_cp ~cfg:Config.default ~prepared:p
              ~axes:(sweep_axes ()) ())
      in
      counts.points <- r.sw_points;
      (digest_sweep r, r.sw_baseline)
  in
  (res, p, prepare_s)

(* The analysis is timed from [ready], when the process has started;
   its set-up is its [Runner.prepare], the work before the analysis
   proper. *)
let item_run ~item ~trace ~trace_file =
  Pool.set_jobs jobs;
  if trace then Telemetry.enable ();
  let tr = Tracer.create trace in
  let counts =
    { multisim_subsets = 0; graph_batches = 0; nodes = 0; edges = 0; points = 0 }
  in
  let ready = now () in
  let ((b, kind) as it) = items.(item) in
  let (digest, baseline), p, prepare_s =
    Tracer.span tr ~layer:false ("item." ^ b ^ "." ^ kind_name kind) (fun () ->
        analyze tr counts it)
  in
  emit_f "ms" ((now () -. ready) *. 1e3);
  emit_f "setup_s" prepare_s;
  emit "digest" digest;
  emit "baseline" (Printf.sprintf "%.17g" baseline);
  emit_f "peak_mb" (vmhwm_mb 0);
  if trace then begin
    emit_counter "runner.workloads_prepared" ~outside:1 ( = );
    emit_counter "multisim.queries" ~outside:counts.multisim_subsets ( = );
    emit_counter "sweep.points" ~outside:counts.points ( = );
    (* every batched graph-oracle call runs at least one sliced pass *)
    emit_counter "graph.sliced_evals" ~outside:counts.graph_batches ( >= );
    List.iter (fun (n, s) -> emit_f ("self." ^ n) s) (Tracer.self_by_name tr);
    let unattr, roots = Tracer.unattributed tr in
    emit_f "unattributed_s" unattr;
    emit_f "root_s" roots;
    emit_i "multisim_queries" counts.multisim_subsets;
    emit_i "sweep_points" counts.points;
    emit_i "nodes" counts.nodes;
    emit_i "edges" counts.edges;
    Tracer.write tr trace_file;
    (* the same sweep at 1 job and at nproc jobs, outside the trace *)
    if kind = Sweep_graph then begin
      let sweep_s jobs =
        Pool.set_jobs jobs;
        let t0 = now () in
        ignore
          (Sweep.run ~engine:Sweep.Graph_cp ~cfg:Config.default ~prepared:p
             ~axes:(sweep_axes ()) ());
        now () -. t0
      in
      let seq = sweep_s 1 in
      let par = sweep_s (nproc ()) in
      emit_f "pool_speedup" (seq /. par)
    end
  end

(* ---------- parent side ---------- *)

(* The per-layer metrics a traced run of this workload reports. *)
let layers =
  [ "isa.prepare_ms"; "sim.baseline_ms"; "depgraph.build_ms"; "depgraph.eval_ms";
    "sim.multisim_ms"; "sim.multisim_queries"; "profiler.profile_ms";
    "profiler.eval_ms"; "core.breakdown_self_ms"; "sensitivity.sweep_ms";
    "sensitivity.points"; "util.pool_speedup"; "depgraph.nodes"; "depgraph.edges";
    "trace.overhead_frac"; "trace.unattributed_frac"; "trace.counter_mismatches" ]

type pass = {
  wall_s : float;
  steal : float;  (** share of CPU time the host stole during the pass *)
  runs : kv list;  (** in item order *)
}

let run ~seed ~seconds ~trace =
  let rng = Prng.create seed in
  let attempted = ref 0 and failed = ref 0 in
  let digests = Hashtbl.create 8 in
  let one_pass ~trace =
    let order = Array.init (Array.length items) Fun.id in
    Prng.shuffle rng order;
    let results = Array.make (Array.length items) None in
    let t0 = now () in
    let (), steal =
      with_steal @@ fun () ->
      Array.iter
        (fun i ->
          incr attempted;
          let item = items.(i) in
          match
            run_child
              [ "batch-item"; "--item"; string_of_int i;
                "--trace"; (if trace then "1" else "0"); "--trace-file";
                Printf.sprintf "perfbench/out/trace-cold-batch-%s-%s-seed%d.json"
                  (fst item) (kind_name (snd item)) seed ]
          with
          | Error m ->
            problem "%s" m;
            incr failed
          | Ok kv ->
            let d = kv_str kv "digest" in
            Hashtbl.replace digests i d;
            let ok_d = check_exact (item_key item ^ "/digest") d in
            let ok_b = check_exact (item_key item ^ "/baseline") (kv_str kv "baseline") in
            if not (ok_d && ok_b) then incr failed;
            results.(i) <- Some kv)
        order
    in
    let wall_s = now () -. t0 in
    if Array.for_all Option.is_some results then
      Some { wall_s; steal; runs = Array.to_list (Array.map Option.get results) }
    else None
  in
  let t_start = now () in
  let passes = ref [] and traced = ref None in
  if trace then begin
    (match one_pass ~trace:false with Some p -> passes := [ p ] | None -> ());
    traced := one_pass ~trace:true
  end
  else
    while now () -. t_start < seconds do
      match one_pass ~trace:false with
      | Some p -> passes := p :: !passes
      | None -> ()
    done;
  if !passes = [] then failwith "cold-batch: no pass completed";
  (* Each composed breakdown must equal the Runner.oracle_of_kind path. *)
  Array.iteri
    (fun i ((b, kind) as item) ->
      let kind =
        match kind with
        | Graph_bd -> Some Runner.Fullgraph
        | Multisim_bd -> Some Runner.Multisim
        | Profiler_bd -> Some Runner.Profiler
        | Sweep_graph -> None
      in
      Option.iter
        (fun kind ->
          incr attempted;
          let p = Runner.prepare (settings b) (Workload.find_exn b) in
          let bd =
            Breakdown.focus ~oracle:(Runner.oracle_of_kind kind bd_cfg p) ~focus_cat
          in
          if not
               (check (Hashtbl.find_opt digests i = Some (digest_breakdown bd))
                  "%s: composed breakdown differs from Runner.oracle_of_kind"
                  (item_key item))
          then incr failed)
        kind)
    items;
  let all = List.rev !passes in
  let passes = quiet (fun p -> p.steal) all in
  let over_passes f = median_l (List.map f passes) in
  let item_floats k p = Array.of_list (List.map (fun kv -> kv_f kv k) p.runs) in
  let e2e =
    [ ("work_ms", over_passes (fun p -> p.wall_s *. 1e3));
      (* analysis-latency percentiles of each pass, median over passes *)
      ("p50_ms", over_passes (fun p -> percentile (item_floats "ms" p) 0.5));
      ("tail_ms", over_passes (fun p -> percentile (item_floats "ms" p) 0.9));
      (* Runner.prepare of every analysis in a pass, median over passes *)
      ("setup_s", median_l (List.map (fun p -> sum_l (Array.to_list (item_floats "setup_s" p))) all));
      ("peak_mb",
       median_l (List.map (fun p -> Array.fold_left Float.max 0. (item_floats "peak_mb" p)) all)) ]
  in
  let layers =
    match !traced with
    | None -> []
    | Some p ->
      let sum k = sum_l (List.map (fun kv -> Option.fold ~none:0. ~some:float_of_string (List.assoc_opt k kv)) p.runs) in
      let self n = sum ("self." ^ n) *. 1e3 in
      let counters =
        List.concat (List.mapi (fun i kv -> counter_facts (item_key items.(i)) kv) p.runs)
      in
      (* analysis time only: the traced sweep process also times the
         pool speedup after its analysis *)
      let analysis_ms p = sum_l (Array.to_list (item_floats "ms" p)) in
      let untraced = analysis_ms (List.hd passes) in
      [ ("isa.prepare_ms", self "isa.prepare");
        ("sim.baseline_ms", self "sim.baseline");
        ("depgraph.build_ms", self "depgraph.build");
        ("depgraph.eval_ms", self "depgraph.eval");
        ("sim.multisim_ms", self "sim.multisim");
        ("sim.multisim_queries", sum "multisim_queries");
        ("profiler.profile_ms", self "profiler.profile");
        ("profiler.eval_ms", self "profiler.eval");
        ("core.breakdown_self_ms", self "core.breakdown");
        ("sensitivity.sweep_ms", self "sensitivity.sweep");
        ("sensitivity.points", sum "sweep_points");
        ("util.pool_speedup", sum "pool_speedup");
        ("depgraph.nodes", sum "nodes");
        ("depgraph.edges", sum "edges");
        ("trace.overhead_frac", (analysis_ms p -. untraced) /. untraced);
        ("trace.unattributed_frac", sum "unattributed_s" /. sum "root_s");
        ("trace.counter_mismatches", float_of_int (mismatches counters)) ]
      @ self_rows (List.concat p.runs)
      @ counter_rows counters
  in
  { metrics = e2e @ layers;
    attempted = !attempted;
    failed = !failed;
    settings =
      [ ("items",
         String.concat ","
           (Array.to_list (Array.map (fun (b, k) -> b ^ "/" ^ kind_name k) items)));
        ("warmup", string_of_int warmup);
        ("measure", string_of_int measure);
        ("breakdown_config", "dl1_lat=4, focus dl1");
        ("sweep", String.concat " " sweep_specs);
        ("passes", Printf.sprintf "%d (timings over the %d without a burst of host steal)"
                     (List.length all) (List.length passes));
        ("pool_jobs", string_of_int jobs);
        ("tail_percentile", "90 (per-analysis latency)") ] }
