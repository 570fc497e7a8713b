(* Tests for the streaming analysis core: front-end stepper equivalence,
   bounded-state simulator bit-identity, segmented-vs-monolithic exactness
   across segment seams, job-count determinism, bounded memory, the
   stream_segment fault seam, and the producer/consumer pipeline's
   invariance under the pool job count. *)

module Isa = Icost_isa.Isa
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Graph = Icost_depgraph.Graph
module Build = Icost_depgraph.Build
module Category = Icost_core.Category
module Workload = Icost_workloads.Workload
module Pool = Icost_util.Pool
module Fault = Icost_util.Fault
module Source = Icost_stream.Source
module Score = Icost_stream.Core
module Asm = Icost_isa.Asm
module Runner = Icost_experiments.Runner

let prepare ?(warmup = 2000) ?(measure = 4000) ?(cfg = Config.default) name =
  let w = Workload.find_exn name in
  let trace =
    Interp.run
      ~config:{ Interp.default_config with max_instrs = warmup + measure }
      (w.build ())
  in
  let evts, _ = Events.annotate cfg trace in
  let len = min measure (Trace.length trace - warmup) in
  let strace = Trace.slice trace ~start:warmup ~len in
  let sevts = Events.slice evts ~start:warmup ~len in
  (strace, sevts)

let all_sets = Array.init (1 lsl Category.count) (fun s -> s)

let monolithic_times cfg (trace : Trace.t) evts =
  let r = Ooo.run cfg trace evts in
  let g = Build.of_sim cfg trace evts r in
  (Graph.eval_subsets g all_sets, r.Ooo.cycles)

(* the source every law/test feeds: the already-sliced window *)
let window_source (trace : Trace.t) evts = Source.of_arrays trace.Trace.instrs evts

(* ---- front end: of_program matches interpret-then-slice ---- *)

let test_source_of_program () =
  List.iter
    (fun name ->
      let warmup = 1500 and measure = 2500 in
      let cfg = Config.default in
      let strace, sevts = prepare ~warmup ~measure ~cfg name in
      let src =
        Source.of_program cfg
          ((Workload.find_exn name).Workload.build ())
          ~warmup ~max_insns:measure
      in
      Array.iteri
        (fun i d ->
          match src () with
          | None -> Alcotest.failf "%s: source ended early at %d" name i
          | Some (d', e') ->
            if d' <> d then Alcotest.failf "%s: dyn %d differs" name i;
            if e' <> sevts.(i) then Alcotest.failf "%s: evt %d differs" name i)
        strace.Trace.instrs;
      (match src () with
       | Some _ -> Alcotest.failf "%s: source yielded past the window" name
       | None -> ()))
    [ "gcc"; "mcf" ]

(* ---- cold preparation: the streamed window = interpret, annotate, slice ----

   [Runner.prepare] streams its warm-up through [Source.window]; the
   materialize-then-slice pipeline it replaced is the reference, including
   the trace's [halted] flag and the error for a warm-up the program does
   not outlive. *)

let reference_prepare (s : Runner.settings) (w : Workload.t) =
  let trace =
    Interp.run
      ~config:{ Interp.default_config with max_instrs = s.warmup + s.measure }
      (w.build ())
  in
  let evts, _ = Events.annotate Config.default trace in
  let len = min s.measure (Trace.length trace - s.warmup) in
  if len <= 0 then
    invalid_arg
      (Printf.sprintf "Runner.prepare: %s produced only %d instructions" w.name
         (Trace.length trace));
  (Trace.slice trace ~start:s.warmup ~len, Events.slice evts ~start:s.warmup ~len)

let check_prepare_matches (s : Runner.settings) (w : Workload.t) =
  let rtrace, revts = reference_prepare s w in
  let p = Runner.prepare s w in
  if p.trace.instrs <> rtrace.instrs then Alcotest.failf "%s: instrs differ" w.name;
  if p.evts <> revts then Alcotest.failf "%s: evts differ" w.name;
  Alcotest.(check bool) (w.name ^ " halted") rtrace.halted p.trace.halted

(* 2 + 5 * iters instructions, then Halt; the loop stores and reloads so
   store-forwarding sources straddle the warm-up boundary *)
let halting_workload ~iters =
  let build () =
    let a = Asm.create ~name:"halts" () in
    Asm.li a ~rd:1 iters;
    Asm.li a ~rd:2 0x4000;
    Asm.label a "top";
    Asm.store a ~rs:1 ~base:2 ~offset:0;
    Asm.load a ~rd:3 ~base:2 ~offset:0;
    Asm.addi a ~rd:2 ~rs1:2 8;
    Asm.addi a ~rd:1 ~rs1:1 (-1);
    Asm.bne a ~rs1:1 ~rs2:0 "top";
    Asm.halt a;
    Asm.assemble a
  in
  { Workload.name = "halts"; description = "counted store/load loop"; build }

let test_prepare_matches_slice () =
  List.iter
    (check_prepare_matches { Runner.warmup = 20_000; measure = 5_000; benches = [] })
    Workload.all;
  (* halts inside the window: 402 of the 1000 measured instructions *)
  let w = halting_workload ~iters:100 in
  let s = { Runner.warmup = 100; measure = 1000; benches = [] } in
  check_prepare_matches s w;
  Alcotest.(check int) "window ends at the halt" 402
    (Trace.length (Runner.prepare s w).trace);
  (* halts during the warm-up: both paths refuse with the same message *)
  let s = { Runner.warmup = 1000; measure = 1000; benches = [] } in
  let refusal f =
    match f () with
    | _ -> Alcotest.fail "warm-up past the halt was accepted"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "same refusal"
    (refusal (fun () -> ignore (reference_prepare s w)))
    (refusal (fun () -> ignore (Runner.prepare s w)));
  Alcotest.(check string) "refusal counts the whole run"
    "Runner.prepare: halts produced only 502 instructions"
    (refusal (fun () -> ignore (Runner.prepare s w)))

(* MD5s of the marshalled (instrs, evts, halted) the materializing
   preparation produced at the default scale: an icost.graphcache.v1
   snapshot marshals the prepared workload, so the streamed path must
   reproduce it byte for byte. *)
let test_prepare_bytes_pinned () =
  List.iter
    (fun (name, md5) ->
      let p = Runner.prepare Runner.default_settings (Workload.find_exn name) in
      let bytes = Marshal.to_string (p.trace.instrs, p.evts, p.trace.halted) [] in
      Alcotest.(check string) (name ^ " window bytes") md5
        (Digest.to_hex (Digest.string bytes)))
    [ ("gcc", "7d053da520f1deaaeb355a996733514b");
      ("mcf", "f7c7a219cabf5d23657cc6d5d0dfd22a") ]

(* ---- bounded-state simulator: bit-identical slots vs Ooo.run ---- *)

let test_stream_sim_bit_identity () =
  List.iter
    (fun (name, cfg) ->
      let strace, sevts = prepare ~cfg name in
      let r = Ooo.run cfg strace sevts in
      let sim = Ooo.Stream.create cfg in
      Array.iteri
        (fun i d ->
          let s = Ooo.Stream.step sim d sevts.(i) in
          if s <> r.Ooo.slots.(i) then
            Alcotest.failf "%s: slot %d differs (stream vs monolithic)" name i)
        strace.Trace.instrs;
      Alcotest.(check int)
        (name ^ " cycles") r.Ooo.cycles
        (Ooo.Stream.cycles sim))
    [
      ("gcc", Config.default);
      ("vortex", Config.default);
      ("mcf", Config.loop_dl1);
      ("crafty", Config.loop_bmisp);
      ("twolf", Config.loop_wakeup);
    ]

(* ---- segmented aggregate = monolithic 256-subset table, exactly ---- *)

let check_times name (expected : int array) (r : Score.result) =
  Array.iteri
    (fun s t ->
      if r.Score.times.(s) <> t then
        Alcotest.failf "%s: subset %s: stream %d vs monolithic %d" name
          (Category.Set.name s) r.Score.times.(s) t)
    expected

let test_stream_matches_monolithic () =
  List.iter
    (fun (name, cfg, seg) ->
      let strace, sevts = prepare ~cfg name in
      let expected, sim_cycles = monolithic_times cfg strace sevts in
      let r = Score.analyze ~segment_insns:seg cfg (window_source strace sevts) in
      check_times name expected r;
      Alcotest.(check int) (name ^ " instrs") (Trace.length strace) r.Score.instrs;
      Alcotest.(check int) (name ^ " sim cycles") sim_cycles r.Score.sim_cycles)
    [
      (* segment far below the window size stresses every seam kind *)
      ("gcc", Config.default, 32);
      ("gcc", Config.default, 511);
      ("mcf", Config.loop_dl1, 256);
      ("crafty", Config.loop_bmisp, 777);
      ("twolf", Config.loop_wakeup, 1024);
      ("vortex", Config.default, 100_000) (* single segment *);
    ]

(* Huge L1 latencies: carried times and in-fragment paths overflow the
   21-bit packed field, so fragments are priced on the 2 x 31-bit kernel
   (500k cycles) or the scalar reference (5M cycles); the aggregate must
   still equal the monolithic scalar sweep. *)
let test_stream_over_bound () =
  List.iter
    (fun (dl1_lat, path) ->
      let cfg = { Config.default with Config.dl1_lat } in
      let strace, sevts = prepare ~warmup:1000 ~measure:3000 ~cfg "gcc" in
      let g = Build.of_sim cfg strace sevts (Ooo.run cfg strace sevts) in
      let expected = Graph.eval_subsets_scalar g all_sets in
      let r, moved =
        Test_graph.counting [ path ] (fun () ->
            Score.analyze ~segment_insns:1024 cfg (window_source strace sevts))
      in
      Alcotest.(check bool) (path ^ " taken") true (List.hd moved > 0);
      check_times (Printf.sprintf "dl1_lat=%d" dl1_lat) expected r)
    [ (500_000, "graph.wide_evals"); (5_000_000, "graph.scalar_fallbacks") ]

let test_segment_invariance () =
  let strace, sevts = prepare "parser" in
  let run seg = Score.analyze ~segment_insns:seg Config.default (window_source strace sevts) in
  let r0 = run 4096 in
  List.iter
    (fun seg ->
      let r = run seg in
      if r.Score.times <> r0.Score.times then
        Alcotest.failf "segment_insns %d changed the aggregate" seg)
    [ 64; 2048; 8192 ]

let test_jobs_determinism () =
  let strace, sevts = prepare "eon" in
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      Pool.set_jobs 1;
      let r1 = Score.analyze ~segment_insns:512 Config.default (window_source strace sevts) in
      Pool.set_jobs 4;
      let r4 = Score.analyze ~segment_insns:512 Config.default (window_source strace sevts) in
      if r1.Score.times <> r4.Score.times then
        Alcotest.fail "ICOST_JOBS 1 vs 4 changed the streamed aggregate")

(* ---- boundary bookkeeping: totals conserved across seams ---- *)

let test_seam_bookkeeping () =
  let strace, sevts = prepare "gap" in
  let n = Trace.length strace in
  let r = Score.analyze ~segment_insns:97 Config.default (window_source strace sevts) in
  (* every instruction lands in exactly one segment, segments are contiguous
     and monotone — no dropped or double-counted work at seams *)
  Alcotest.(check int) "covered" n r.Score.instrs;
  let expect_segments = (n + 96) / 97 in
  Alcotest.(check int) "segments" expect_segments r.Score.segments;
  ignore
    (List.fold_left
       (fun (next_id, next_start) (st : Score.seg_stat) ->
         Alcotest.(check int) "seg id" next_id st.Score.seg_id;
         Alcotest.(check int) "seg start" next_start st.Score.seg_start;
         if st.Score.seg_len <= 0 || st.Score.seg_len > 97 then
           Alcotest.failf "segment %d has bad length %d" st.Score.seg_id st.Score.seg_len;
         (next_id + 1, next_start + st.Score.seg_len))
       (0, 0) r.Score.seg_stats);
  (* the cycle frontier is monotone across segments *)
  ignore
    (List.fold_left
       (fun prev (st : Score.seg_stat) ->
         if st.Score.cum_cycles < prev then
           Alcotest.failf "cycle frontier shrank at segment %d" st.Score.seg_id;
         st.Score.cum_cycles)
       0 r.Score.seg_stats);
  (* and ends at the streaming simulator's own final cycle count *)
  (match List.rev r.Score.seg_stats with
   | last :: _ ->
     Alcotest.(check int) "frontier" r.Score.sim_cycles last.Score.cum_cycles
   | [] -> Alcotest.fail "no segments")

(* ---- bounded memory: peak live words do not grow with trace length ----

   gcc's carried rows ramp up with its data footprint for the first
   ~240k instructions (in the lanes that idealize win, bw and bmisp
   together every line row stays live) and then plateau, so the heap is
   measured past the ramp, where only trace length still varies; the
   carried-row high-water mark pins that the plateau was reached. *)

let test_bounded_memory () =
  let w = Workload.find_exn "gcc" in
  let run n =
    Gc.compact ();
    let src = Source.of_program Config.default (w.Workload.build ()) ~warmup:500 ~max_insns:n in
    let r = Score.analyze ~segment_insns:2048 Config.default src in
    Alcotest.(check int) "instrs" n r.Score.instrs;
    (r.Score.peak_heap_words, r.Score.peak_carry_rows)
  in
  (* three sizes, each doubling: live data is O(segment + window +
     footprint), so peak heap must grow sublinearly — a doubling input
     may move the heap-size high-water mark by GC pacing noise, but
     nowhere near 2x (and 4x the input must stay well under 2.5x the
     heap) *)
  let p1, _ = run 240_000 in
  let p2, rows2 = run 480_000 in
  let p3, rows3 = run 960_000 in
  Alcotest.(check int) "carried rows past the ramp" rows2 rows3;
  let ratio a b = float_of_int a /. float_of_int b in
  if ratio p2 p1 > 1.5 || ratio p3 p2 > 1.5 || ratio p3 p1 > 2.5 then
    Alcotest.failf "peak heap grows with trace length: %d -> %d -> %d words" p1 p2 p3

(* ---- fault seam: poisoned segment -> typed error, aggregate intact ---- *)

let test_fault_seam () =
  let strace, sevts = prepare "bzip2" in
  let clean =
    Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
  in
  Fault.configure_exn "stream_segment:@3";
  let seg =
    Fun.protect
      ~finally:(fun () -> Fault.disable ())
      (fun () ->
        match
          Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
        with
        | _ -> Alcotest.fail "poisoned stream did not raise"
        | exception Score.Segment_fault seg -> seg)
  in
  Alcotest.(check int) "faulted segment" 2 seg;
  (* the poisoned run published nothing; a clean rerun is unperturbed *)
  let again =
    Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
  in
  if again.Score.times <> clean.Score.times then
    Alcotest.fail "aggregate corrupted by an aborted streaming run"

let test_empty_stream () =
  let r = Score.analyze Config.default (Source.of_arrays [||] [||]) in
  Alcotest.(check int) "instrs" 0 r.Score.instrs;
  Alcotest.(check int) "cycles" 0 r.Score.cycles;
  Alcotest.(check int) "segments" 0 r.Score.segments

(* ---- end to end: the program source equals the sliced-array source ---- *)

let test_program_source_equals_window () =
  let name = "vpr" in
  let warmup = 1200 and measure = 3000 in
  let strace, sevts = prepare ~warmup ~measure name in
  let via_arrays =
    Score.analyze ~segment_insns:700 Config.default (window_source strace sevts)
  in
  let via_program =
    Score.analyze ~segment_insns:700 Config.default
      (Source.of_program Config.default
         ((Workload.find_exn name).Workload.build ()) ~warmup ~max_insns:measure)
  in
  if via_arrays.Score.times <> via_program.Score.times then
    Alcotest.fail "of_program and of_arrays sources disagree"

(* ---- seeded: seams that split in-flight miss windows ----

   An alias-heavy generated workload keeps cache-line sharing and store
   forwarding in flight almost continuously, so a segment size well below
   the ROB window guarantees seams cut through open miss windows.  Both
   the streaming aggregate and the shotgun profiler's stitched result
   must be invariant to that: the stream stays bit-identical to the
   monolithic table, and [Profile.profile] keeps its canonical
   [aborted_by] order and fragment order regardless of job count. *)

module Gen = Icost_check.Gen
module Profile = Icost_profiler.Profile
module Cost = Icost_core.Cost

let test_seeded_miss_window_seams () =
  let cfg = Config.default in
  let program = Gen.generate ~profile:Gen.Alias_heavy 31415 in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = 6000 } program
  in
  let evts, _ = Events.annotate cfg trace in
  let seg = 48 (* below the 64-entry window: seams always split it *) in
  (* sanity: some line-sharing source really does sit across a seam *)
  let crossing = ref 0 in
  Array.iteri
    (fun i (e : Events.evt) ->
      match e.Events.share_src with
      | Some j when j / seg < i / seg -> incr crossing
      | _ -> ())
    evts;
  Alcotest.(check bool) "seams split live miss windows" true (!crossing > 0);
  let expected, sim_cycles = monolithic_times cfg trace evts in
  let r =
    Score.analyze ~segment_insns:seg cfg
      (Source.of_arrays trace.Trace.instrs evts)
  in
  check_times "alias-heavy seed" expected r;
  Alcotest.(check int) "sim cycles" sim_cycles r.Score.sim_cycles;
  (* the profiler on the same seeded run: stitched stats and oracle are
     job-count invariant *)
  let result = Ooo.run cfg trace evts in
  let saved = Pool.jobs () in
  let p1, p4 =
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs saved)
      (fun () ->
        Pool.set_jobs 1;
        let p1 = Profile.profile cfg program trace evts result in
        Pool.set_jobs 4;
        (p1, Profile.profile cfg program trace evts result))
  in
  Alcotest.(check bool) "stats (incl. canonical aborted_by) identical" true
    (p1.Profile.stats = p4.Profile.stats);
  let o1 = Profile.oracle p1 and o4 = Profile.oracle p4 in
  Array.iter
    (fun s ->
      let v1 = Cost.query o1 s and v4 = Cost.query o4 s in
      if v1 <> v4 then
        Alcotest.failf "profiler oracle differs on %s: %g vs %g"
          (Category.Set.name s) v1 v4)
    all_sets

(* ---- the pipeline: fragment k+1 is produced on a pool worker while
   fragment k is priced; every job count must see the same stream ---- *)

let with_jobs n f =
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      Pool.set_jobs n;
      f ())

(* everything but the heap samples, which depend on allocation timing *)
let observable (r : Score.result) =
  ( (r.Score.times, r.Score.instrs, r.Score.segments, r.Score.cycles),
    (r.Score.sim_cycles, r.Score.peak_carry_rows),
    List.map
      (fun (st : Score.seg_stat) ->
        (st.Score.seg_id, st.Score.seg_start, st.Score.seg_len, st.Score.cum_cycles))
      r.Score.seg_stats )

let test_pipeline_jobs_identity () =
  List.iter
    (fun name ->
      List.iter
        (fun (seg, measure) ->
          (* one-instruction segments cost a full pinned prefix each *)
          let strace, sevts = prepare ~measure name in
          let run jobs =
            with_jobs jobs (fun () ->
                let r =
                  Score.analyze ~segment_insns:seg Config.default
                    (window_source strace sevts)
                in
                if jobs = 1 then
                  Alcotest.(check int) "no domain spawned at one job" 0 (Pool.workers ());
                observable r)
          in
          let r1 = run 1 in
          List.iter
            (fun jobs ->
              if run jobs <> r1 then
                Alcotest.failf "%s, segment %d: jobs %d differs from jobs 1" name seg
                  jobs)
            [ 2; 4 ])
        [ (1, 100); (7, 400); (509, 3000); (8192, 3000) ])
    [ "gcc"; "mcf" ]

let test_pipeline_fault () =
  let strace, sevts = prepare "bzip2" in
  let analyze () =
    Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
  in
  let faulted () =
    Fault.configure_exn "stream_segment:@3";
    Fun.protect ~finally:Fault.disable (fun () ->
        match analyze () with
        | _ -> Alcotest.fail "poisoned stream did not raise"
        | exception Score.Segment_fault seg -> seg)
  in
  let seg1 = with_jobs 1 faulted in
  with_jobs 2 (fun () ->
      let clean = observable (analyze ()) in
      Alcotest.(check int) "same faulted segment" seg1 (faulted ());
      if observable (analyze ()) <> clean then
        Alcotest.fail "aggregate corrupted by an aborted pipelined run")

exception Source_broke of int

(* A source over the gcc window counting its pulls; with [break_at] it
   raises on that pull.  [late] counts pulls after [closed] is set. *)
let counting_source ?break_at () =
  let strace, sevts = prepare "gcc" in
  let inner = window_source strace sevts in
  let pulled = Atomic.make 0 and closed = Atomic.make false and late = Atomic.make 0 in
  let src () =
    if Atomic.get closed then Atomic.incr late;
    let n = Atomic.fetch_and_add pulled 1 + 1 in
    if Some n = break_at then raise (Source_broke n);
    inner ()
  in
  (src, pulled, closed, late)

let test_pipeline_source_error () =
  (* the 1124th pull is in the third 512-instruction segment *)
  let outcome jobs =
    with_jobs jobs (fun () ->
        let src, _, _, _ = counting_source ~break_at:1124 () in
        match Score.analyze ~segment_insns:512 Config.default src with
        | _ -> None
        | exception e -> Some e)
  in
  let o1 = outcome 1 in
  Alcotest.(check bool) "jobs 1 raises the source's exception" true
    (o1 = Some (Source_broke 1124));
  Alcotest.(check bool) "jobs 2 raises the same" true (outcome 2 = o1)

let test_pipeline_source_pulls () =
  let pulls jobs ~mode =
    with_jobs jobs (fun () ->
        let break_at = if mode = `Source_error then Some 1124 else None in
        let src, pulled, closed, late = counting_source ?break_at () in
        if mode = `Fault then Fault.configure_exn "stream_segment:@3";
        let instrs =
          Fun.protect ~finally:Fault.disable (fun () ->
              match Score.analyze ~segment_insns:512 Config.default src with
              | r -> Some r.Score.instrs
              | exception (Score.Segment_fault _ | Source_broke _) -> None)
        in
        Atomic.set closed true;
        let at_return = Atomic.get pulled in
        (* a producer left in flight would pull again on its worker *)
        Unix.sleepf 0.05;
        Alcotest.(check int) "no pull after analyze" 0 (Atomic.get late);
        Alcotest.(check int) "pull count settled" at_return (Atomic.get pulled);
        (instrs, at_return))
  in
  List.iter
    (fun mode ->
      let ((instrs, n1) as r1) = pulls 1 ~mode in
      (match instrs with
       | Some instrs -> Alcotest.(check int) "one pull past the end" (instrs + 1) n1
       | None -> ());
      if pulls 2 ~mode <> r1 then Alcotest.fail "jobs 1 and 2 pull differently")
    [ `Clean; `Fault; `Source_error ]

let suite =
  ( "stream",
    [
      Alcotest.test_case "source of_program = slice" `Quick test_source_of_program;
      Alcotest.test_case "stream sim bit-identity" `Quick test_stream_sim_bit_identity;
      Alcotest.test_case "stream = monolithic (256 subsets)" `Quick
        test_stream_matches_monolithic;
      Alcotest.test_case "segment-size invariance" `Quick test_segment_invariance;
      Alcotest.test_case "jobs 1 vs 4 determinism" `Quick test_jobs_determinism;
      Alcotest.test_case "seam bookkeeping" `Quick test_seam_bookkeeping;
      Alcotest.test_case "bounded memory" `Slow test_bounded_memory;
      Alcotest.test_case "fault seam" `Quick test_fault_seam;
      Alcotest.test_case "empty stream" `Quick test_empty_stream;
      Alcotest.test_case "program source = window source" `Quick
        test_program_source_equals_window;
      Alcotest.test_case "seeded miss-window seams" `Quick
        test_seeded_miss_window_seams;
      Alcotest.test_case "over-bound fragments exact" `Quick test_stream_over_bound;
      Alcotest.test_case "prepare = interpret + annotate + slice" `Quick
        test_prepare_matches_slice;
      Alcotest.test_case "prepared window bytes pinned" `Quick
        test_prepare_bytes_pinned;
      Alcotest.test_case "pipeline: jobs 1, 2, 4 bit-identical" `Quick
        test_pipeline_jobs_identity;
      Alcotest.test_case "pipeline: fault seam at jobs 2" `Quick test_pipeline_fault;
      Alcotest.test_case "pipeline: source error propagates" `Quick
        test_pipeline_source_error;
      Alcotest.test_case "pipeline: source never pulled late" `Quick
        test_pipeline_source_pulls;
    ] )
