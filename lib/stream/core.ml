(** Bounded-memory streaming analysis core.

    The pipeline consumes a {!Source.t} in fixed-size segments.  Each
    segment is timed by the bounded-state simulator
    ({!Icost_sim.Ooo.Stream}), compiled into a dependence-graph fragment
    with {!Icost_depgraph.Build.emit} (the exact monolithic edge-emission
    logic, appending straight into the flat CSR arrays), and priced for
    {e all} [2^Category.count] idealization subsets with
    {!Icost_depgraph.Graph.eval_pinned}, the same packed kernel the
    monolithic graph uses.

    {b Pipeline.}  A producer pulls the source, steps the simulator and
    builds fragment k+1 on a pool worker ({!Icost_util.Pool.async}) while
    the consumer prices fragment k on the calling domain.  Building needs
    only structure: a producer older than the pinned prefix enters the
    fragment as a floor {e reference} (register, store address or miss
    line), which the consumer reads from its carry maps just before
    pricing, exactly where a serial build would have read them.  At one
    job [await] runs the producer inline, so there is one code path for
    every job count.  Stage spans: [stream.produce] (containing
    [stream.sim] and [stream.build], on the producer's domain),
    [stream.segment] (containing [stream.carry] with floor resolution,
    [stream.eval] and [stream.prune]) and [stream.wait], the consumer's
    time blocked on the producer.

    {b Why segmented evaluation is exact.}  Every edge of the dependence
    graph points forward ([src < dst]), so node arrival times are final
    after one pass and the max-plus recurrence can be check-pointed at any
    instruction boundary.  A segment fragment pins the previous
    [B = max (window, fetch_bw, commit_bw)] instructions' node times as
    boundary nodes — every structural edge (DD/PD/FBW/CD/CC/CBW, lookback
    [<= B]) then lands on a real node — while the unbounded-lookback data
    edges (PR register/store producers, PP line sharing) become per-lane
    floors carried in footprint-bounded maps (last writer per register,
    last store per address, last missing load per line).  Taken-branch FBW
    edges whose source predates the prefix are dropped: the source's
    dispatch is dominated by the in-prefix [D(i - fetch_bw)] source of the
    regular FBW edge (same base, same removal category, D monotone per
    lane), so the drop is exact.  Carried times are absolute; the kernel
    rebases each lane on its earliest pinned time so they fit its packed
    fields, which is exact because every fragment node is reached from the
    prefix by never-removed edges (see {!Icost_depgraph.Graph.eval_pinned}).
    The aggregate over any trace is therefore {e bit-identical} to the
    monolithic evaluation — the [stream-matches-monolithic] law pins this
    with [Exact] tolerance.

    Peak memory is O(segment + window): the per-segment slabs (the largest
    allocations, ~[5 * (B + segment) * 11] ints per pool job) are recycled
    through a {!Icost_depgraph.Graph.workspace}, at most two fragments
    are alive (the one priced and the one built), and all carries are
    bounded by the data footprint of the workload, not the trace length. *)

module Trace = Icost_isa.Trace
module Isa = Icost_isa.Isa
module Config = Icost_uarch.Config
module Ooo = Icost_sim.Ooo
module Graph = Icost_depgraph.Graph
module Build = Icost_depgraph.Build
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Telemetry = Icost_util.Telemetry
module Fault = Icost_util.Fault
module Pool = Icost_util.Pool

exception Segment_fault of int
(** Raised when the [stream_segment] fault point fires while opening a
    segment; carries the segment id.  The analysis aborts without
    publishing any partial aggregate. *)

type seg_stat = {
  seg_id : int;
  seg_start : int;  (** global index of the segment's first instruction *)
  seg_len : int;
  cum_cycles : int;  (** baseline cycle frontier after this segment *)
  heap_words : int;  (** major-heap words sampled after this segment *)
}

type result = {
  times : int array;
      (** absolute execution time (cycles) per idealization subset,
          indexed by {!Category.Set.t}; length [2^Category.count] *)
  instrs : int;
  segments : int;
  segment_insns : int;
  cycles : int;  (** baseline time, [times.(Category.Set.empty)] *)
  sim_cycles : int;  (** streaming simulator's own cycle count *)
  peak_heap_words : int;
  peak_carry_rows : int;
      (** high-water mark of carried register, store and line rows *)
  seg_stats : seg_stat list;  (** in segment order *)
}

let fault_segment = Fault.point "stream_segment"
let c_segments = Telemetry.counter "stream.segments"
let c_instrs = Telemetry.counter "stream.instructions"
let g_carry_rows = Telemetry.gauge "stream.carry_rows"

(* Process-wide tallies, independent of the telemetry sink: the service
   layer reports these in its status body. *)
let g_segments = Atomic.make 0
let g_peak_words = Atomic.make 0

let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

let segments_total () = Atomic.get g_segments

let peak_mb_hwm () =
  float_of_int (Atomic.get g_peak_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

let default_segment_insns = 8192

(* Where the carried row of a producer older than the pinned prefix
   lives.  The producer records these references; the consumer reads them
   from its carry maps when it prices the fragment. *)
type producer = Reg of int | Store of int

type floor_src =
  | Producers of producer list
      (** R node: lane-wise max of the rows found, plus the wakeup addend *)
  | Line of int  (** P node: the line's miss row, 0 in Dmiss lanes *)

(* One segment's fragment, built from structure alone. *)
type fragment = {
  id : int;
  graph : Graph.t;
  n_pinned : int;  (** instructions in the pinned prefix *)
  len : int;
  floors : (int * floor_src) list;  (** by increasing node *)
  last_reg : int array;  (** local index of each register's last writer, or -1 *)
  last_store : (int, int) Hashtbl.t;  (** address -> local index of last store *)
  last_line : (int, int) Hashtbl.t;  (** line -> local index of last missing load *)
  cum_cycles : int;
}

let analyze ?(segment_insns = default_segment_insns) (cfg : Config.t)
    (src : Source.t) : result =
  let segment_insns = max 1 segment_insns in
  let p = Build.params_of_config cfg in
  let nsets = 1 lsl Category.count in
  let sets = Array.init nsets (fun s -> s) in
  let bmax = max p.Build.window (max p.Build.fetch_bw p.Build.commit_bw) in
  let wake = p.Build.wakeup_latency - 1 in
  (* ---- producer state: the source, the simulator and the structural
     history.  It never reads the carry maps, so it can run on a pool
     worker while the consumer prices the previous fragment. ---- *)
  let sim = Ooo.Stream.create cfg in
  let taken_hist : int Queue.t = Queue.create () in
  let prev_mispredict = ref false in
  let produced = ref 0 in
  let prefix = ref 0 in
  let next_id = ref 0 in
  let read_segment () =
    let rec go acc k =
      if k = segment_insns then List.rev acc
      else match src () with None -> List.rev acc | Some it -> go (it :: acc) (k + 1)
    in
    Array.of_list (go [] 0)
  in
  let produce () =
    let items = read_segment () in
    let len = Array.length items in
    if len = 0 then None
    else begin
      let sp = Telemetry.start_span "stream.produce" in
      let sp_sim = Telemetry.start_span "stream.sim" in
      let slots = Array.map (fun (d, e) -> Ooo.Stream.step sim d e) items in
      Telemetry.end_span sp_sim;
      let sp_build = Telemetry.start_span "stream.build" in
      let bp = !prefix in
      let base_g = !produced - bp in
      let b = Graph.Builder.create ~edges:(12 * (bp + len)) () in
      for _ = 1 to bp do
        Graph.Builder.note_instr b
      done;
      (* per-node external floors (producers older than the pinned prefix),
         R before P within an instruction, so by increasing node *)
      let floors = ref [] in
      (* last producer of each kind inside this segment (local index) *)
      let lw = Array.make Isa.num_regs (-1) in
      let lstore : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let lline : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let pm = ref !prev_mispredict in
      for k = 0 to len - 1 do
        let d, e = items.(k) in
        let li = bp + k in
        let gi = !produced + k in
        let info = Build.info_of_sim cfg d e slots.(k) in
        (* remap producers to fragment-local indices; producers older than
           the pinned prefix become floor references *)
        let old = ref [] in
        let reg_producers =
          List.filter_map
            (fun (r, g) ->
              if g >= base_g then Some (g - base_g)
              else begin
                old := Reg r :: !old;
                None
              end)
            d.Trace.reg_deps
        in
        let mem_producer =
          match d.Trace.mem_dep with
          | Some g when g >= base_g -> Some (g - base_g)
          | Some _ ->
            Option.iter (fun a -> old := Store a :: !old) d.Trace.mem_addr;
            None
          | None -> None
        in
        if !old <> [] then
          floors := (Graph.node ~seq:li ~kind:Graph.R, Producers !old) :: !floors;
        let share_src =
          match e.Icost_uarch.Events.share_src with
          | Some g when g >= base_g -> Some (g - base_g)
          | Some _ ->
            floors :=
              (Graph.node ~seq:li ~kind:Graph.P, Line e.Icost_uarch.Events.line)
              :: !floors;
            None
          | None -> None
        in
        let info = { info with Build.reg_producers; mem_producer; share_src } in
        let taken_limit_src =
          if info.Build.taken_branch
             && Queue.length taken_hist >= p.Build.fetch_taken_limit
          then begin
            let jl = Queue.peek taken_hist - base_g in
            (* an out-of-prefix source is dominated by the regular FBW edge
               from D(i - fetch_bw): exact drop *)
            if jl >= 0 then Some jl else None
          end
          else None
        in
        Build.emit p b ~prev_mispredict:!pm ~taken_limit_src ~seq:li info;
        if info.Build.taken_branch then begin
          Queue.add gi taken_hist;
          if Queue.length taken_hist > p.Build.fetch_taken_limit then
            ignore (Queue.pop taken_hist)
        end;
        pm := e.Icost_uarch.Events.mispredict;
        (match Isa.dest d.Trace.instr with Some rd -> lw.(rd) <- li | None -> ());
        if Isa.is_store d.Trace.instr then (
          match d.Trace.mem_addr with
          | Some a -> Hashtbl.replace lstore a li
          | None -> ());
        if Isa.is_load d.Trace.instr && e.Icost_uarch.Events.dl1_miss then
          Hashtbl.replace lline e.Icost_uarch.Events.line li
      done;
      let graph = Graph.Builder.finish b in
      Telemetry.end_span sp_build;
      let id = !next_id in
      incr next_id;
      prev_mispredict := !pm;
      produced := !produced + len;
      prefix := min bmax (bp + len);
      Telemetry.end_span sp
        ~attrs:[ ("seg", string_of_int id); ("instrs", string_of_int len) ];
      Some
        {
          id;
          graph;
          n_pinned = bp;
          len;
          floors = List.rev !floors;
          last_reg = lw;
          last_store = lstore;
          last_line = lline;
          cum_cycles = Ooo.Stream.cycles sim;
        }
    end
  in
  (* ---- consumer state: the carry maps, pinned rows and stats.  Node-time
     rows are [nsets] lanes of absolute arrival times. ---- *)
  let pin = ref (Array.make (5 * bmax * nsets) 0) in
  let pin_next = ref (Array.make (5 * bmax * nsets) 0) in
  let pin_count = ref 0 in
  let reg_rows : int array option array = Array.make Isa.num_regs None in
  let store_rows : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let line_rows : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  (* rows of pruned carries, reused for new ones: every lane of a carried
     row is rewritten by the kernel before it is read *)
  let spare = ref [] in
  let fresh_row () =
    match !spare with
    | row :: rest ->
      spare := rest;
      row
    | [] -> Array.make nsets 0
  in
  let count = ref 0 in
  let seg_stats = ref [] in
  let peak_heap = ref 0 in
  let peak_rows = ref 0 in
  let ws = Graph.workspace () in
  (* Read the fragment's floor references from the carry maps as segment
     k-1's eval and prune left them, before this segment's carry plan
     rewrites rows in place; a pruned carry is no floor.  Filtering keeps
     the floors in node order. *)
  let resolve_floors floors =
    List.filter_map
      (fun (node, src) ->
        match src with
        | Producers ps ->
          let row = ref None in
          List.iter
            (fun pr ->
              let carried =
                match pr with
                | Reg r -> reg_rows.(r)
                | Store a -> Hashtbl.find_opt store_rows a
              in
              match carried with
              | None -> ()
              | Some r ->
                let row =
                  match !row with
                  | Some row -> row
                  | None ->
                    let fresh = Array.make nsets 0 in
                    row := Some fresh;
                    fresh
                in
                for s = 0 to nsets - 1 do
                  if r.(s) > row.(s) then row.(s) <- r.(s)
                done)
            ps;
          Option.map
            (fun row ->
              if wake <> 0 then
                for s = 0 to nsets - 1 do
                  row.(s) <- row.(s) + wake
                done;
              (node, row))
            !row
        | Line l ->
          (* the PP edge is removed in Dmiss-idealized lanes *)
          Option.map
            (fun lr ->
              ( node,
                Array.init nsets (fun s ->
                    if Category.Set.mem Category.Dmiss s then 0 else lr.(s)) ))
            (Hashtbl.find_opt line_rows l))
      floors
    |> Array.of_list
  in
  let consume (f : fragment) =
    let sp = Telemetry.start_span "stream.segment" in
    let bp = f.n_pinned and len = f.len in
    assert (bp = !pin_count);
    (* ---- floor resolution and carry extraction plan ---- *)
    let sp_carry = Telemetry.start_span "stream.carry" in
    let ext_floors = resolve_floors f.floors in
    let total = bp + len in
    let new_pin = min bmax total in
    let first_keep = total - new_pin in
    let extracts = ref [] in
    for v = 0 to (5 * new_pin) - 1 do
      extracts := ((5 * first_keep) + v, !pin_next, v * nsets) :: !extracts
    done;
    (* the latest producers' rows are rewritten in place: the floors above
       already copied what they read from them, and nothing reads the maps
       while the kernel runs *)
    let carry_row node row =
      extracts := (Graph.node ~seq:node ~kind:Graph.P, row, 0) :: !extracts
    in
    let live_regs = ref 0 in
    for r = 0 to Isa.num_regs - 1 do
      if f.last_reg.(r) >= 0 then begin
        let row = match reg_rows.(r) with Some row -> row | None -> fresh_row () in
        reg_rows.(r) <- Some row;
        carry_row f.last_reg.(r) row
      end;
      if reg_rows.(r) <> None then incr live_regs
    done;
    let carry_into tbl key li =
      match Hashtbl.find_opt tbl key with
      | Some row -> carry_row li row
      | None ->
        let row = fresh_row () in
        Hashtbl.add tbl key row;
        carry_row li row
    in
    Hashtbl.iter (carry_into store_rows) f.last_store;
    Hashtbl.iter (carry_into line_rows) f.last_line;
    let extract = Array.of_list !extracts in
    let rows = !live_regs + Hashtbl.length store_rows + Hashtbl.length line_rows in
    if rows > !peak_rows then peak_rows := rows;
    Telemetry.end_span sp_carry;
    (* ---- price all subsets; the kernel writes every carry row, each
       pool chunk a disjoint lane range ---- *)
    let sp_eval = Telemetry.start_span "stream.eval" in
    Graph.eval_pinned ~ws f.graph sets ~n_pinned:(5 * bp) ~pinned:!pin ~ext_floors
      ~extract;
    Telemetry.end_span sp_eval;
    (* ---- commit carries ---- *)
    let t = !pin in
    pin := !pin_next;
    pin_next := t;
    pin_count := new_pin;
    count := !count + len;
    let sp_prune = Telemetry.start_span "stream.prune" in
    (* ---- prune dead carries: D is monotone per lane (base-0 DD chain,
       never removed) and every floor attaches at an R or P node, both
       >= D + 1 in every lane; a carried row wholly below the newest
       dispatch row can therefore never raise any future max, so dropping
       it is exact.  This bounds the carry maps by the data footprint,
       not the trace length; it does not bound them by a window: in the
       lanes that idealize win, bw and bmisp together, dispatch never
       overtakes old miss completions, so every line row stays live. ---- *)
    let lastd = (Graph.node ~seq:(new_pin - 1) ~kind:Graph.D * nsets) in
    let frontier = !pin in
    (* line rows are only consulted in non-Dmiss lanes (the PP edge is
       removed under Dmiss idealization), so those lanes are [skip]ped.
       A live row is usually live in the same lane as the last live row
       found, so that lane is tried first. *)
    let hint = ref 0 in
    let dead ~addend ~skip row =
      let live s = s land skip = 0 && row.(s) + addend > frontier.(lastd + s) in
      let rec go s =
        s >= nsets || if live s then (hint := s; false) else go (s + 1)
      in
      (not (live !hint)) && go 0
    in
    let dead_all = dead ~addend:wake ~skip:0 in
    for r = 0 to Isa.num_regs - 1 do
      match reg_rows.(r) with
      | Some row when dead_all row ->
        spare := row :: !spare;
        reg_rows.(r) <- None
      | _ -> ()
    done;
    let drop tbl dead =
      let dead_keys =
        Hashtbl.fold (fun k row acc -> if dead row then k :: acc else acc) tbl []
      in
      List.iter
        (fun k ->
          spare := Hashtbl.find tbl k :: !spare;
          Hashtbl.remove tbl k)
        dead_keys
    in
    drop store_rows dead_all;
    drop line_rows (dead ~addend:0 ~skip:(Category.Set.singleton Category.Dmiss));
    Telemetry.end_span sp_prune;
    let heap_words = (Gc.quick_stat ()).Gc.heap_words in
    if heap_words > !peak_heap then peak_heap := heap_words;
    Atomic.incr g_segments;
    bump_max g_peak_words heap_words;
    seg_stats :=
      {
        seg_id = f.id;
        seg_start = !count - len;
        seg_len = len;
        cum_cycles = f.cum_cycles;
        heap_words;
      }
      :: !seg_stats;
    Telemetry.incr c_segments;
    Telemetry.add c_instrs len;
    Telemetry.end_span sp
      ~attrs:
        [
          ("seg", string_of_int f.id);
          ("instrs", string_of_int len);
          ("cum_cycles", string_of_int f.cum_cycles);
        ]
  in
  (* ---- the pipeline: while fragment k is priced on this domain, a pool
     worker produces fragment k+1 (at one job, [await] runs it inline).  A
     short segment ends the source, so nothing is produced after it, and
     nothing is left in flight when [analyze] returns or raises. ---- *)
  let rec run (f : fragment) =
    if Fault.fire fault_segment then raise (Segment_fault f.id);
    let next = if f.len = segment_insns then Some (Pool.async produce) else None in
    (match consume f with
     | () -> ()
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       Option.iter (fun n -> try ignore (Pool.await n) with _ -> ()) next;
       Printexc.raise_with_backtrace e bt);
    match next with
    | None -> ()
    | Some n ->
      (match Telemetry.with_span "stream.wait" (fun () -> Pool.await n) with
       | Some f -> run f
       | None -> ())
  in
  (* the first fragment is produced here, keeping pool start-up out of
     the time to the first segment *)
  Option.iter run (produce ());
  Telemetry.set g_carry_rows (float_of_int !peak_rows);
  let times = Array.make nsets 0 in
  if !count > 0 then begin
    let last_c = Graph.node ~seq:(!pin_count - 1) ~kind:Graph.C in
    let base = last_c * nsets in
    for s = 0 to nsets - 1 do
      times.(s) <- !pin.(base + s) + 1
    done
  end;
  {
    times;
    instrs = !count;
    segments = List.length !seg_stats;
    segment_insns;
    cycles = times.(Category.Set.empty);
    sim_cycles = Ooo.Stream.cycles sim;
    peak_heap_words = !peak_heap;
    peak_carry_rows = !peak_rows;
    seg_stats = List.rev !seg_stats;
  }

(** Table-backed cost oracle: the streamed aggregate answers every subset
    query from its precomputed absolute-time table, so all downstream
    breakdown/icost machinery runs unchanged over arbitrarily long
    traces. *)
let oracle (r : result) : Cost.oracle =
  Cost.with_batch
    ~batch:(fun ss -> Array.map (fun s -> float_of_int r.times.(s)) ss)
    (fun s -> float_of_int r.times.(s))

let peak_mb (r : result) : float =
  float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)
