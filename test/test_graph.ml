(* Tests for the dependence-graph model: structure, evaluation,
   idealization, critical path, slack, agreement with the simulator. *)

module Asm = Icost_isa.Asm
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Category = Icost_core.Category
module Telemetry = Icost_util.Telemetry

let graph_of ?(max_instrs = 3000) ?(cfg = Config.default) name =
  let w = Icost_workloads.Workload.find_exn name in
  let trace = Interp.run ~config:{ Interp.default_config with max_instrs } (w.build ()) in
  let evts, _ = Events.annotate cfg trace in
  let r = Ooo.run cfg trace evts in
  (trace, evts, r, Build.of_sim cfg trace evts r)

let test_node_codec () =
  List.iter
    (fun k ->
      let v = Graph.node ~seq:17 ~kind:k in
      Alcotest.(check int) "seq round trip" 17 (Graph.seq_of_node v);
      Alcotest.(check bool) "kind round trip" true (Graph.kind_of_node v = k))
    [ Graph.D; Graph.R; Graph.E; Graph.P; Graph.C ]

let test_edge_counts () =
  let cfg = Config.default in
  let _, _, _, g = graph_of "gcc" in
  let n = g.Graph.num_instrs in
  let h = Graph.edge_histogram g in
  let count k = Option.value ~default:0 (Hashtbl.find_opt h k) in
  Alcotest.(check int) "DD edges" (n - 1) (count Graph.DD);
  Alcotest.(check int) "DR edges" n (count Graph.DR);
  Alcotest.(check int) "RE edges" n (count Graph.RE);
  Alcotest.(check int) "EP edges" n (count Graph.EP);
  Alcotest.(check int) "PC edges" n (count Graph.PC);
  Alcotest.(check int) "CC edges" (n - 1) (count Graph.CC);
  Alcotest.(check int) "CD edges" (n - cfg.window_size) (count Graph.CD);
  (* FBW: one per instruction beyond the fetch width, plus one per taken
     branch beyond the per-cycle taken limit *)
  Alcotest.(check bool) "FBW edges at least n - fbw" true
    (count Graph.FBW >= n - cfg.fetch_bw);
  Alcotest.(check int) "CBW edges" (n - cfg.commit_bw) (count Graph.CBW)

let test_edges_point_forward () =
  let _, _, _, g = graph_of "parser" in
  Array.iter
    (fun (e : Graph.edge) ->
      if e.src >= e.dst then Alcotest.failf "edge not forward: %d -> %d" e.src e.dst)
    (Graph.edges g)

let test_eval_monotone_nodes () =
  let _, _, _, g = graph_of "gzip" in
  let time = Graph.eval g in
  for i = 0 to g.Graph.num_instrs - 1 do
    let t k = time.(Graph.node ~seq:i ~kind:k) in
    if
      not
        (t Graph.D <= t Graph.R && t Graph.R <= t Graph.E && t Graph.E <= t Graph.P
         && t Graph.P <= t Graph.C)
    then Alcotest.failf "node times not monotone at %d" i
  done

let test_graph_tracks_simulator () =
  List.iter
    (fun name ->
      let _, _, r, g = graph_of name in
      let cp = Graph.critical_length g in
      let err =
        Float.abs (float_of_int (cp - r.Ooo.cycles)) /. float_of_int r.Ooo.cycles
      in
      if err > 0.08 then
        Alcotest.failf "%s: graph CP %d vs sim %d (err %.1f%%)" name cp r.Ooo.cycles
          (100. *. err))
    [ "gcc"; "mcf"; "gap"; "vortex"; "bzip2"; "eon" ]

let test_idealization_monotone_on_graph () =
  let _, _, _, g = graph_of "twolf" in
  let base = Graph.critical_length g in
  (* more idealization can only shorten the critical path *)
  List.iter
    (fun s ->
      let cp = Graph.critical_length ~ideal:s g in
      if cp > base then Alcotest.failf "idealized CP grew under %s" (Category.Set.name s))
    (Category.Set.subsets Category.Set.full)

let test_subset_monotonicity () =
  let _, _, _, g = graph_of "gcc" in
  let cp s = Graph.critical_length ~ideal:s g in
  let full = Category.Set.full in
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          if not (Category.Set.mem c s) then begin
            let bigger = Category.Set.add c s in
            if cp bigger > cp s then
              Alcotest.failf "CP grew when adding %s to %s" (Category.name c)
                (Category.Set.name s)
          end)
        Category.all)
    (Category.Set.subsets full)

let test_critical_path_valid () =
  let _, _, _, g = graph_of ~max_instrs:500 "crafty" in
  let time = Graph.eval g in
  let cp = Graph.critical_path g in
  Alcotest.(check bool) "path non-empty" true (List.length cp > 1);
  (* path ends at the last C node *)
  let last_node = fst (List.nth cp (List.length cp - 1)) in
  Alcotest.(check int) "ends at final commit"
    (Graph.node ~seq:(g.Graph.num_instrs - 1) ~kind:Graph.C)
    last_node;
  (* times along the path never decrease *)
  let rec check = function
    | (v, _) :: ((w, _) :: _ as rest) ->
      if time.(v) > time.(w) then Alcotest.failf "time decreased along path";
      check rest
    | _ -> ()
  in
  check cp

let test_slack_zero_on_critical_path () =
  let _, _, _, g = graph_of ~max_instrs:500 "gap" in
  let slacks = Graph.slacks g in
  let cp = Graph.critical_path g in
  List.iter
    (fun (v, _) ->
      if slacks.(v) <> 0 then
        Alcotest.failf "critical node %s has slack %d" (Graph.node_name v) slacks.(v))
    cp

let test_slacks_nonnegative () =
  let _, _, _, g = graph_of ~max_instrs:500 "vpr" in
  Array.iteri
    (fun v s ->
      if s <> max_int && s < 0 then
        Alcotest.failf "negative slack at %s" (Graph.node_name v))
    (Graph.slacks g)

let test_instr_cost () =
  let _, _, _, g = graph_of ~max_instrs:400 "mcf" in
  let base = Graph.critical_length g in
  (* zeroing one instruction's EP can only help, and not more than base *)
  for seq = 0 to 50 do
    let c = Graph.instr_cost g ~seq in
    if c < 0 || c > base then Alcotest.failf "instr_cost out of range at %d: %d" seq c
  done

let test_cost_of_edges_total () =
  let _, _, _, g = graph_of ~max_instrs:400 "gcc" in
  (* zeroing every edge collapses the critical path to ~0 *)
  let c = Graph.cost_of_edges g (fun _ -> true) in
  let base = Graph.critical_length g in
  Alcotest.(check bool) "all-edge cost ~ base (modulo the startup floor)" true
    (base - c <= 150)

let test_table2_ablations () =
  let cfg = Config.default in
  let w = Icost_workloads.Workload.find_exn "gzip" in
  let trace = Interp.run ~config:{ Interp.default_config with max_instrs = 2000 } (w.build ()) in
  let evts, _ = Events.annotate cfg trace in
  let r = Ooo.run cfg trace evts in
  let p = Build.params_of_config cfg in
  let infos =
    Array.init (Trace.length trace) (fun i ->
        Build.info_of_sim cfg (Trace.get trace i) evts.(i) r.Ooo.slots.(i))
  in
  let g_new = Build.of_infos p infos in
  let g_old = Build.of_infos { p with explicit_bw = false; pp_edges = false } infos in
  let h_old = Graph.edge_histogram g_old in
  Alcotest.(check (option int)) "old model has no FBW edges" None
    (Hashtbl.find_opt h_old Graph.FBW);
  Alcotest.(check (option int)) "old model has no PP edges" None
    (Hashtbl.find_opt h_old Graph.PP);
  (* both models should still be within a reasonable band of the simulator *)
  let cp_new = Graph.critical_length g_new in
  let cp_old = Graph.critical_length g_old in
  let err cp = Float.abs (float_of_int (cp - r.Ooo.cycles)) /. float_of_int r.Ooo.cycles in
  Alcotest.(check bool) "new model accurate" true (err cp_new < 0.08);
  Alcotest.(check bool)
    (Printf.sprintf "old model less constrained (%d vs %d)" cp_old cp_new)
    true (cp_old <= cp_new)

let test_dot_output () =
  let _, _, _, g = graph_of ~max_instrs:12 "gcc" in
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "contains edges" true
    (String.split_on_char '\n' dot
     |> List.exists (fun l -> String.length l > 4 && String.sub l 2 1 = "n"))

let all_subsets = Array.of_list (Category.Set.subsets Category.Set.full)

let test_sliced_matches_scalar () =
  let _, _, _, g = graph_of ~cfg:Config.loop_dl1 "gcc" in
  let reference = Graph.eval_subsets_scalar g all_subsets in
  Alcotest.(check bool) "default lanes bit-identical (256 sets, >1 chunk)"
    true
    (Graph.eval_subsets g all_subsets = reference);
  List.iter
    (fun lanes ->
      Alcotest.(check bool)
        (Printf.sprintf "lanes=%d bit-identical" lanes)
        true
        (Graph.eval_slices ~lanes g all_subsets = reference))
    [ 1; 2; 3; 5; 17; 63; 64; 1000 ];
  Alcotest.(check bool) "empty set array" true
    (Graph.eval_subsets g [||] = [||])

(* [f ()] with the telemetry sink on, and how far each named counter moved *)
let counting names f =
  let cs = List.map Telemetry.counter names in
  let was = Telemetry.enabled () in
  Telemetry.enable ();
  let v0 = List.map Telemetry.value cs in
  let r = Fun.protect ~finally:(fun () -> if not was then Telemetry.disable ()) f in
  (r, List.map2 (fun c v -> Telemetry.value c - v) cs v0)

let test_sliced_over_bound_path () =
  (* a 500k-cycle L1 latency pushes the compiled graph's latency bound
     far past the 20-bit field, so the 2 x 31-bit instance of the kernel
     runs; 50M cycles pushes it past 30 bits too, onto the scalar
     reference.  Both must stay bit-identical to the scalar sweep *)
  List.iter
    (fun (dl1_lat, path) ->
      let cfg = { Config.default with Config.dl1_lat } in
      let _, _, _, g = graph_of ~max_instrs:800 ~cfg "gcc" in
      let reference = Graph.eval_subsets_scalar g all_subsets in
      Alcotest.(check bool) "huge-latency graph exceeds packed range" true
        (Graph.critical_length g > 1 lsl 20);
      let sliced, moved =
        counting [ path ] (fun () -> Graph.eval_subsets g all_subsets)
      in
      Alcotest.(check bool) (path ^ " taken") true (List.hd moved > 0);
      Alcotest.(check bool) "over-bound fallback bit-identical" true
        (sliced = reference);
      Alcotest.(check bool) "over-bound fallback, lanes=5" true
        (Graph.eval_slices ~lanes:5 g all_subsets = reference))
    [ (500_000, "graph.wide_evals"); (50_000_000, "graph.scalar_fallbacks") ]

(* The scalar recurrence over boxed edge records, resumed after a pinned
   prefix: an oracle for [Graph.eval_pinned] independent of the flat
   arrays.  [lower v] is node [v]'s external floor (0 when none). *)
let pinned_reference g s ~n_pinned ~pinned_row ~lower =
  let es = Graph.edges g in
  let time = Array.make (Graph.num_nodes g) 0 in
  for v = 0 to Graph.num_nodes g - 1 do
    if v < n_pinned then time.(v) <- pinned_row v
    else begin
      let best = ref (lower v) in
      for k = g.Graph.first_in.(v) to g.Graph.first_in.(v + 1) - 1 do
        match Graph.edge_latency s es.(k) with
        | Some lat -> best := max !best (time.(es.(k).Graph.src) + lat)
        | None -> ()
      done;
      time.(v) <- !best
    end
  done;
  time

let pinned_rebased_exact name =
  let _, _, _, g = graph_of ~max_instrs:2000 name in
  let sets = all_subsets in
  let m = Array.length sets in
  let n = Graph.num_nodes g in
  let n_pinned = Graph.node ~seq:300 ~kind:Graph.D in
  (* pin the first 300 instructions at their monolithic times shifted past
     the 20-bit field: max-plus is shift-invariant, so every later node
     must come out shifted by exactly the same amount *)
  let shift = 3 lsl 20 in
  let full = Array.map (fun s -> Graph.eval ~ideal:s g) sets in
  let pinned = Array.make (n_pinned * m) 0 in
  for v = 0 to n_pinned - 1 do
    for i = 0 to m - 1 do
      pinned.((v * m) + i) <- full.(i).(v) + shift
    done
  done;
  let probes =
    [ n_pinned; n_pinned + 4; Graph.node ~seq:1000 ~kind:Graph.R; n - 6; n - 1 ]
  in
  let run ?lanes ext_floors =
    let dst = Array.make (List.length probes * m) 0 in
    let extract = Array.of_list (List.mapi (fun j v -> (v, dst, j * m)) probes) in
    Graph.eval_pinned ?lanes g sets ~n_pinned ~pinned ~ext_floors ~extract;
    fun j i -> dst.((j * m) + i)
  in
  let check_all ~detail ext_floors expect =
    List.iter
      (fun lanes ->
        let (got : int -> int -> int), moved =
          counting
            [ "graph.sliced_evals"; "graph.wide_evals"; "graph.scalar_fallbacks" ]
            (fun () -> run ?lanes ext_floors)
        in
        Alcotest.(check (list bool))
          (detail ^ ": 21-bit path only") [ true; false; false ]
          (List.map (fun d -> d > 0) moved);
        List.iteri
          (fun j v ->
            for i = 0 to m - 1 do
              if got j i <> expect i v then
                Alcotest.failf "%s, %s, lanes %s: node %s, subset %d: %d vs %d" name detail
                  (match lanes with Some l -> string_of_int l | None -> "default")
                  (Graph.node_name v) i (got j i) (expect i v)
            done)
          probes)
      [ None; Some 1; Some 3; Some 17; Some 64 ]
  in
  check_all ~detail:"no floors" [||] (fun i v -> full.(i).(v) + shift);
  (* external floors below each lane's offset (its earliest pinned time)
     rebase to negative values; they must clamp to 0 and change nothing *)
  let below =
    [|
      (Graph.node ~seq:301 ~kind:Graph.R, Array.init m (fun i -> shift - 1 - (i land 15)));
      (Graph.node ~seq:900 ~kind:Graph.P, Array.make m 0);
    |]
  in
  check_all ~detail:"floors below the offset" below (fun i v -> full.(i).(v) + shift);
  (* a floor above the arrival times must push them up exactly as the
     record-level oracle says *)
  let hot = Graph.node ~seq:700 ~kind:Graph.R in
  let above =
    [| below.(0); (hot, Array.init m (fun i -> full.(i).(hot) + shift + 1000 + i)); below.(1) |]
  in
  let oracle =
    Array.mapi
      (fun i s ->
        let lower v =
          Array.fold_left
            (fun acc (u, row) -> if u = v then max acc row.(i) else acc)
            0 above
        in
        pinned_reference g s ~n_pinned
          ~pinned_row:(fun v -> pinned.((v * m) + i))
          ~lower)
      sets
  in
  Alcotest.(check bool) "the raised floor reaches the sink" true
    (oracle.(0).(n - 1) > full.(0).(n - 1) + shift);
  check_all ~detail:"floor above" above (fun i v -> oracle.(i).(v))

let test_pinned_rebased_exact () =
  (* mcf never uses a long-latency ALU op, so its lanes also fall into
     classes the kernel prices once, where their pinned and floor values
     agree *)
  List.iter pinned_rebased_exact [ "gcc"; "mcf" ]

let test_builder_floors () =
  (* floors may be added in any node order; each binds only its own node *)
  let b = Graph.Builder.create () in
  Graph.Builder.note_instr b;
  Graph.Builder.note_instr b;
  let d0 = Graph.node ~seq:0 ~kind:Graph.D and d1 = Graph.node ~seq:1 ~kind:Graph.D in
  Graph.Builder.add_edge b ~src:d0 ~dst:d1 ~kind:Graph.DD ();
  Graph.Builder.add_floor b ~node:d1 ~base:7
    ~components:[ { Graph.cat = Category.Imiss; lat = 5 } ];
  Graph.Builder.add_floor b ~node:d0 ~base:2
    ~components:[ { Graph.cat = Category.Bw; lat = 3 } ];
  let c0 = Graph.node ~seq:0 ~kind:Graph.C in
  Graph.Builder.add_floor b ~node:c0 ~base:1
    ~components:[ { Graph.cat = Category.Shalu; lat = 1 } ];
  let g = Graph.Builder.finish b in
  let at cat v =
    (Graph.eval ~ideal:(Option.fold ~none:Category.Set.empty ~some:Category.Set.singleton cat) g).(v)
  in
  Alcotest.(check (list int)) "D0, D1, C0 under none / bw / imiss / shalu"
    [ 5; 12; 2; 2; 12; 5; 7; 1 ]
    [ at None d0; at None d1; at None c0; at (Some Category.Bw) d0;
      at (Some Category.Bw) d1; at (Some Category.Imiss) d0;
      at (Some Category.Imiss) d1; at (Some Category.Shalu) c0 ];
  Alcotest.(check bool) "sliced = scalar" true
    (Graph.eval_subsets g all_subsets = Graph.eval_subsets_scalar g all_subsets)

let test_marshal_layout_pinned () =
  (* MD5s of the bytes the record-based builder wrote for these kernels:
     the flat builder must reproduce them byte for byte (CSR order within
     a node included), or existing icost.graphcache.v1 snapshot files
     would stop loading *)
  List.iter
    (fun (name, cfg, md5) ->
      let _, _, _, g = graph_of ~max_instrs:2000 ~cfg name in
      let s = Graph.marshal g in
      Alcotest.(check string) (name ^ " bytes") md5 (Digest.to_hex (Digest.string s));
      let g' = Graph.unmarshal s in
      Alcotest.(check bool) (name ^ " re-marshal") true (Graph.marshal g' = s);
      Alcotest.(check bool) (name ^ " critical path") true
        (Graph.critical_path g' = Graph.critical_path g))
    [
      ("gcc", Config.default, "f9846dd3b6b37928ac2d1bf5f5cafc31");
      ("mcf", Config.loop_dl1, "ba92ed16244f8725a654521c1246dfa7");
    ]

let prop_eval_deterministic =
  QCheck.Test.make ~name:"evaluation is deterministic" ~count:5
    (QCheck.make (QCheck.Gen.oneofl [ "gap"; "eon" ]))
    (fun name ->
      let _, _, _, g = graph_of ~max_instrs:1000 name in
      Graph.eval g = Graph.eval g)

let suite =
  ( "graph",
    [
      Alcotest.test_case "node codec" `Quick test_node_codec;
      Alcotest.test_case "edge counts" `Quick test_edge_counts;
      Alcotest.test_case "edges forward" `Quick test_edges_point_forward;
      Alcotest.test_case "node times monotone" `Quick test_eval_monotone_nodes;
      Alcotest.test_case "graph tracks simulator" `Quick test_graph_tracks_simulator;
      Alcotest.test_case "idealization shortens CP" `Quick test_idealization_monotone_on_graph;
      Alcotest.test_case "subset monotonicity" `Quick test_subset_monotonicity;
      Alcotest.test_case "critical path valid" `Quick test_critical_path_valid;
      Alcotest.test_case "zero slack on CP" `Quick test_slack_zero_on_critical_path;
      Alcotest.test_case "slacks non-negative" `Quick test_slacks_nonnegative;
      Alcotest.test_case "instr cost bounded" `Quick test_instr_cost;
      Alcotest.test_case "cost of all edges" `Quick test_cost_of_edges_total;
      Alcotest.test_case "Table 2 ablations" `Quick test_table2_ablations;
      Alcotest.test_case "DOT output" `Quick test_dot_output;
      Alcotest.test_case "sliced eval = scalar" `Quick test_sliced_matches_scalar;
      Alcotest.test_case "sliced eval over-bound path" `Quick
        test_sliced_over_bound_path;
      Alcotest.test_case "pinned kernel rebases exactly" `Quick
        test_pinned_rebased_exact;
      Alcotest.test_case "builder floors in any order" `Quick test_builder_floors;
      Alcotest.test_case "marshal bytes pinned" `Quick test_marshal_layout_pinned;
      QCheck_alcotest.to_alcotest prop_eval_deterministic;
    ] )
