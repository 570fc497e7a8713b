(** Dependence-graph construction.

    Two entry points:

    - {!of_sim}: build the full graph of a simulated execution, taking
      dynamic latencies (functional-unit contention, I-cache stalls) from a
      baseline simulation and the static structure (window size, bandwidths,
      pipeline latencies) from the machine description — the static/dynamic
      split of the paper's Figure 5b.
    - {!of_infos}: build a graph fragment from per-instruction records
      assembled by the shotgun profiler, which gathered the same
      information from samples instead of a simulator.

    Both share the same edge-emission logic, so the profiler's fragments
    are analyzed by literally the same code as the simulator's graphs. *)

module Isa = Icost_isa.Isa
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Category = Icost_core.Category

(** Everything the graph needs to know about one dynamic instruction.
    Producer indices are sequence numbers within the same graph; out-of-range
    producers (before the fragment start) must be omitted. *)
type instr_info = {
  reg_producers : int list;
  mem_producer : int option;
  share_src : int option;
  exec_base : int;  (** execution latency not owned by any category *)
  exec_components : (Category.t * int) list;
  imiss_delay : int;  (** I-cache/I-TLB stall (owned by Imiss) *)
  fu_wait : int;  (** issue/FU contention (owned by Bw) *)
  store_wait : int;  (** store-bandwidth commit contention (owned by Bw) *)
  mispredict : bool;  (** this instruction is a mispredicted branch *)
  taken_branch : bool;  (** taken control transfer (fetch-group boundary) *)
}

(** Structural parameters of the graph (from the machine description). *)
type params = {
  window : int;
  fetch_bw : int;
  commit_bw : int;
  fetch_taken_limit : int;
      (** taken branches that terminate a fetch cycle (Table 6: 2) *)
  wakeup_latency : int;
  branch_recovery : int;
  (* Table 2 model refinements, exposed for ablation: *)
  explicit_bw : bool;
      (** true: FBW/CBW bandwidth edges (the new model); false: bandwidth
          approximated as latency on DD/CC edges (previous work) *)
  pp_edges : bool;  (** model cache-line sharing with PP edges *)
}

let params_of_config (cfg : Config.t) =
  {
    window = cfg.window_size;
    fetch_bw = cfg.fetch_bw;
    commit_bw = cfg.commit_bw;
    fetch_taken_limit = cfg.fetch_taken_limit;
    wakeup_latency = cfg.wakeup_latency;
    branch_recovery = cfg.branch_recovery;
    explicit_bw = true;
    pp_edges = true;
  }

(** Execution-latency decomposition for an instruction: what the EP edge
    carries, split by owning category. *)
let exec_decomposition (cfg : Config.t) (d : Trace.dyn) (e : Events.evt) :
    int * (Category.t * int) list =
  let cls = Isa.class_of d.instr in
  match cls with
  | Isa.Mem_load ->
    let hit, miss = Ooo.load_latency_parts cfg e in
    (0, [ (Category.Dl1, hit); (Category.Dmiss, miss) ])
  | Isa.Mem_store | Isa.Short_alu | Isa.Ctrl | Isa.Nop_class ->
    (0, [ (Category.Shalu, Config.exec_latency cfg cls) ])
  | Isa.Int_mul | Isa.Int_div | Isa.Fp_add | Isa.Fp_mul | Isa.Fp_div ->
    (0, [ (Category.Lgalu, Config.exec_latency cfg cls) ])

(** Emit all edges for instruction [i] given its [info] and whether the
    previous instruction mispredicted.  The edges into each node are
    emitted in the order evaluation scans them, which is also the order
    {!Graph.critical_path} breaks ties in and the order graph snapshots
    store: keep it stable. *)
let emit (p : params) (b : Graph.Builder.b) ~prev_mispredict ~taken_limit_src
    ~seq:(i : int) (info : instr_info) =
  let open Graph in
  Builder.note_instr b;
  let n kind = node ~seq:i ~kind in
  let np seq kind = node ~seq ~kind in
  (* a category-owned share of the latest edge's latency *)
  let comp cat lat = if lat > 0 then Builder.add_component b cat lat in
  (* --- edges into D --- *)
  if i >= p.window then
    Builder.add_edge b ~src:(np (i - p.window) C) ~dst:(n D) ~kind:CD
      ~removed_by:Category.Win ();
  (* fetch stops at the [fetch_taken_limit]-th taken branch per cycle, so the
     m-th taken branch dispatches at least one cycle after the
     (m - limit)-th — an FBW edge between taken branches *)
  (match taken_limit_src with
   | Some j when p.explicit_bw && j < i ->
     Builder.add_edge b ~src:(np j D) ~dst:(n D) ~kind:FBW ~base:1
       ~removed_by:Category.Bw ()
   | _ -> ());
  if p.explicit_bw && i >= p.fetch_bw then
    Builder.add_edge b ~src:(np (i - p.fetch_bw) D) ~dst:(n D) ~kind:FBW ~base:1
      ~removed_by:Category.Bw ();
  if i > 0 then begin
    if prev_mispredict then
      Builder.add_edge b ~src:(np (i - 1) P) ~dst:(n D) ~kind:PD
        ~base:p.branch_recovery ~removed_by:Category.Bmisp ();
    (* DD: in-order dispatch; carries the I-cache miss latency of i, and, in
       the previous-work model, an implicit fetch-bandwidth latency *)
    Builder.add_edge b ~src:(np (i - 1) D) ~dst:(n D) ~kind:DD ();
    comp Category.Imiss info.imiss_delay;
    if (not p.explicit_bw) && i mod p.fetch_bw = 0 then comp Category.Bw 1
  end;
  (* the very first instruction has no DD edge to carry its I-cache stall;
     a node floor on its D node preserves the latency *)
  if i = 0 && info.imiss_delay > 0 then
    Builder.add_floor b ~node:(n D) ~base:0
      ~components:[ { cat = Category.Imiss; lat = info.imiss_delay } ];
  (* --- data dependences, then dispatch, into R --- *)
  let wakeup = p.wakeup_latency - 1 in
  let dep j =
    if j >= 0 && j < i then
      Builder.add_edge b ~src:(np j P) ~dst:(n R) ~kind:PR ~base:wakeup ()
  in
  Option.iter dep info.mem_producer;
  let rec deps_rev = function
    | [] -> ()
    | j :: rest ->
      deps_rev rest;
      dep j
  in
  deps_rev info.reg_producers;
  Builder.add_edge b ~src:(n D) ~dst:(n R) ~kind:DR ~base:1 ();
  (* --- R -> E: contention --- *)
  Builder.add_edge b ~src:(n R) ~dst:(n E) ~kind:RE ();
  comp Category.Bw info.fu_wait;
  (* --- PP cache-line sharing, then the E -> P execution latency --- *)
  (match info.share_src with
   | Some j when p.pp_edges && j >= 0 && j < i ->
     Builder.add_edge b ~src:(np j P) ~dst:(n P) ~kind:PP
       ~removed_by:Category.Dmiss ()
   | _ -> ());
  Builder.add_edge b ~src:(n E) ~dst:(n P) ~kind:EP ~base:info.exec_base ();
  List.iter (fun (cat, lat) -> comp cat lat) info.exec_components;
  (* --- commit --- *)
  if p.explicit_bw && i >= p.commit_bw then
    Builder.add_edge b ~src:(np (i - p.commit_bw) C) ~dst:(n C) ~kind:CBW ~base:1
      ~removed_by:Category.Bw ();
  if i > 0 then begin
    (* the CC edge also carries store-bandwidth contention (Fig. 5b) *)
    Builder.add_edge b ~src:(np (i - 1) C) ~dst:(n C) ~kind:CC ();
    comp Category.Bw info.store_wait;
    if (not p.explicit_bw) && i mod p.commit_bw = 0 then comp Category.Bw 1
  end;
  Builder.add_edge b ~src:(n P) ~dst:(n C) ~kind:PC ~base:1 ()

(** Build a graph from an array of per-instruction records. *)
let of_infos (p : params) (infos : instr_info array) : Graph.t =
  let b = Graph.Builder.create ~edges:(12 * Array.length infos) () in
  let taken_hist = Queue.create () in
  Array.iteri
    (fun i info ->
      let prev_mispredict = i > 0 && infos.(i - 1).mispredict in
      let taken_limit_src =
        if info.taken_branch && Queue.length taken_hist >= p.fetch_taken_limit then
          Some (Queue.peek taken_hist)
        else None
      in
      emit p b ~prev_mispredict ~taken_limit_src ~seq:i info;
      if info.taken_branch then begin
        Queue.add i taken_hist;
        if Queue.length taken_hist > p.fetch_taken_limit then
          ignore (Queue.pop taken_hist)
      end)
    infos;
  Graph.Builder.finish b

(** Per-instruction record from a simulation. *)
let info_of_sim (cfg : Config.t) (d : Trace.dyn) (e : Events.evt)
    (slot : Ooo.slot) : instr_info =
  let exec_base, exec_components = exec_decomposition cfg d e in
  {
    reg_producers = List.map snd d.reg_deps;
    mem_producer = d.mem_dep;
    share_src = e.share_src;
    exec_base;
    exec_components;
    imiss_delay = Ooo.imiss_delay cfg e;
    fu_wait = slot.fu_wait;
    store_wait = slot.store_wait;
    mispredict = e.mispredict;
    taken_branch = Isa.is_branch d.instr && d.taken;
  }

(** Build the full dependence graph of a simulated execution.  [result] must
    be a *baseline* (un-idealized) run: its dynamic contention latencies
    label the RE edges. *)
let of_sim (cfg : Config.t) (trace : Trace.t) (evts : Events.evt array)
    (result : Ooo.result) : Graph.t =
  Icost_util.Telemetry.with_span "graph.build" (fun () ->
      let p = params_of_config cfg in
      let n = Trace.length trace in
      let infos =
        Array.init n (fun i ->
            info_of_sim cfg (Trace.get trace i) evts.(i) result.slots.(i))
      in
      of_infos p infos)

(** A {!Icost_core.Cost.oracle} backed by graph re-evaluation: execution
    time under idealization [s] is the critical-path length with [s]'s
    edges edited. *)
let oracle (g : Graph.t) : Icost_core.Cost.oracle =
  Icost_core.Cost.with_batch
    ~batch:(fun sets -> Array.map float_of_int (Graph.eval_subsets g sets))
    (fun s -> float_of_int (Graph.critical_length ~ideal:s g))
