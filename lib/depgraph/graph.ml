(** The microexecution dependence-graph model (Tables 2 and 3 of the paper).

    Each dynamic instruction contributes five nodes:

    - [D]: dispatch into the window
    - [R]: all data operands ready, waiting on a functional unit
    - [E]: executing
    - [P]: completed execution
    - [C]: committing

    and up to twelve kinds of latency-labelled dependence edges:

    {v
    DD   in-order dispatch            D(i-1)   -> D(i)   (+ I-cache miss latency)
    FBW  finite fetch bandwidth       D(i-fbw) -> D(i)   latency 1
    CD   finite re-order buffer       C(i-w)   -> D(i)
    PD   control dependence           P(i-1)   -> D(i)   (mispredicted branch; recovery latency)
    DR   execution follows dispatch   D(i)     -> R(i)
    PR   data dependences             P(j)     -> R(i)   (register and memory)
    RE   execute after ready          R(i)     -> E(i)   (+ FU contention)
    EP   complete after execute       E(i)     -> P(i)   (execution latency)
    PP   cache-line sharing           P(j)     -> P(i)   (partial misses)
    PC   commit follows completion    P(i)     -> C(i)
    CC   in-order commit              C(i-1)   -> C(i)
    CBW  commit bandwidth             C(i-cbw) -> C(i)   latency 1
    v}

    Edge latencies are stored *decomposed by category* so that idealizing a
    set of categories is a pure re-evaluation: components owned by an
    idealized category contribute zero, and some edges (PD, CD, FBW, CBW,
    PP) disappear entirely when their owning category is idealized.  This is
    the "alter a bottleneck's edges" methodology of Section 3. *)

module Category = Icost_core.Category
module Telemetry = Icost_util.Telemetry

type node_kind = D | R | E | P | C

let node_kinds = [| D; R; E; P; C |]

let kind_index = function D -> 0 | R -> 1 | E -> 2 | P -> 3 | C -> 4

let kind_name = function D -> "D" | R -> "R" | E -> "E" | P -> "P" | C -> "C"

type edge_kind = DD | FBW | CD | PD | DR | PR | RE | EP | PP | PC | CC | CBW

let edge_kind_tag = function
  | DD -> 0
  | FBW -> 1
  | CD -> 2
  | PD -> 3
  | DR -> 4
  | PR -> 5
  | RE -> 6
  | EP -> 7
  | PP -> 8
  | PC -> 9
  | CC -> 10
  | CBW -> 11

let edge_kinds = [| DD; FBW; CD; PD; DR; PR; RE; EP; PP; PC; CC; CBW |]

let edge_kind_names =
  [| "DD"; "FBW"; "CD"; "PD"; "DR"; "PR"; "RE"; "EP"; "PP"; "PC"; "CC"; "CBW" |]

let edge_kind_name k = edge_kind_names.(edge_kind_tag k)

(** A latency component owned by a category: idealizing the category zeroes
    the component. *)
type component = { cat : Category.t; lat : int }

type edge = {
  src : int;  (** node id *)
  dst : int;
  kind : edge_kind;
  base : int;  (** latency that no idealization removes *)
  components : component list;
  removed_by : Category.t option;
      (** the whole edge (constraint included) disappears when this category
          is idealized *)
}

(** Flat-array ("compiled") form of the edge and floor latency data, the
    only form a graph has: {!Builder} appends straight into it.  The hot
    evaluation loops read only unboxed [int array]s: per edge, in CSR
    order, a source node, a kind tag, a base latency, a removal bitmask (0
    when no category removes the edge) and a slice of (category-bitmask,
    latency) component pairs; floors are the same data sorted by node so
    one forward cursor replaces a per-eval table.  Category sets are
    bitmasks ({!Category.Set.t} = [int]), so membership tests in the inner
    loops are single [land]s.  {!edges} rebuilds boxed records on demand
    for the override and rendering paths. *)
type compiled = {
  e_src : int array;  (** per edge, in CSR order *)
  e_kind : int array;  (** {!edge_kind_tag} *)
  e_base : int array;
  e_removed : int array;  (** singleton category mask, or 0 *)
  e_comp_off : int array;  (** [num_edges + 1] offsets into [comp_*] *)
  comp_mask : int array;
  comp_lat : int array;
  f_node : int array;  (** floor entries, sorted by node *)
  f_base : int array;
  f_off : int array;  (** [num_floors + 1] offsets into [f_comp_*] *)
  f_comp_mask : int array;
  f_comp_lat : int array;
  lat_bound : int;
      (** sound upper bound on any node arrival time under any idealization
          (sum over nodes of the max full incoming latency, plus all floor
          latencies), or [-1] when some latency is negative.  Lets the
          sliced evaluator prove that packed lane fields cannot overflow. *)
}

type t = {
  num_instrs : int;
  first_in : int array;  (** CSR index: incoming edges of node [v] are
                             [first_in.(v) .. first_in.(v+1) - 1] *)
  floors : (int * int * component list) list;
      (** (node, base, components): minimum arrival times for nodes with no
          incoming edge to carry them (e.g. the first instruction's I-cache
          stall delaying its dispatch) *)
  compiled : compiled;
}

let num_nodes t = 5 * t.num_instrs

let num_edges t = t.first_in.(num_nodes t)

let node ~seq ~kind = (5 * seq) + kind_index kind

let seq_of_node v = v / 5

let kind_of_node v = node_kinds.(v mod 5)

let node_name v = Printf.sprintf "%s%d" (kind_name (kind_of_node v)) (seq_of_node v)

(** Effective latency of [e] under the idealization [s]; [None] if the edge
    is removed entirely. *)
let edge_latency (s : Category.Set.t) (e : edge) : int option =
  match e.removed_by with
  | Some c when Category.Set.mem c s -> None
  | _ ->
    let extra =
      List.fold_left
        (fun acc { cat; lat } -> if Category.Set.mem cat s then acc else acc + lat)
        0 e.components
    in
    Some (e.base + extra)

let edge_kind_of_tag n =
  if n < 0 || n >= Array.length edge_kinds then
    failwith (Printf.sprintf "Graph.unmarshal: bad edge kind %d" n)
  else edge_kinds.(n)

let cat_mask (c : Category.t) : int = Category.Set.singleton c

let cat_of_mask m =
  let rec go i = if 1 lsl i = m then Category.of_int i else go (i + 1) in
  if m <= 0 || m land (m - 1) <> 0 then invalid_arg "Graph: not a category mask"
  else go 0

(* Latency of edge [k] (of floor [fi]) under [s]; removal is tested
   separately. *)
let[@inline] edge_lat c s k =
  let lat = ref (Array.unsafe_get c.e_base k) in
  for j = c.e_comp_off.(k) to c.e_comp_off.(k + 1) - 1 do
    if c.comp_mask.(j) land s = 0 then lat := !lat + c.comp_lat.(j)
  done;
  !lat

let floor_lat c s fi =
  let lat = ref c.f_base.(fi) in
  for j = c.f_off.(fi) to c.f_off.(fi + 1) - 1 do
    if c.f_comp_mask.(j) land s = 0 then lat := !lat + c.f_comp_lat.(j)
  done;
  !lat

(* the destination of every edge, from the CSR index *)
let edge_dsts (t : t) : int array =
  let dst = Array.make (num_edges t) 0 in
  for v = 0 to num_nodes t - 1 do
    Array.fill dst t.first_in.(v) (t.first_in.(v + 1) - t.first_in.(v)) v
  done;
  dst

(** Boxed edge records in CSR order, rebuilt from the flat arrays. *)
let edges (t : t) : edge array =
  let c = t.compiled and dst = edge_dsts t in
  Array.init (num_edges t) (fun k ->
      let o = c.e_comp_off.(k) in
      {
        src = c.e_src.(k);
        dst = dst.(k);
        kind = edge_kinds.(c.e_kind.(k));
        base = c.e_base.(k);
        components =
          List.init
            (c.e_comp_off.(k + 1) - o)
            (fun j -> { cat = cat_of_mask c.comp_mask.(o + j); lat = c.comp_lat.(o + j) });
        removed_by =
          (if c.e_removed.(k) = 0 then None else Some (cat_of_mask c.e_removed.(k)));
      })

(* ---------- building ---------- *)

module Builder = struct
  (* Edges are appended straight into the CSR arrays: destinations arrive
     in non-decreasing order ({!Build.emit} emits instruction by
     instruction, node kind by node kind), so a node's run is complete
     when the first edge of a later node arrives, and the longest-path
     bound is folded in right then. *)
  type b = {
    mutable n_instrs : int;
    mutable cur : int;  (** destination of the latest edge; -1 before any *)
    mutable ne : int;
    mutable nc : int;
    mutable first_in : int array;  (** valid for nodes [0, cur] *)
    mutable src : int array;
    mutable kind : int array;
    mutable base : int array;
    mutable removed : int array;
    mutable comp_off : int array;  (** valid for [0, ne]; [comp_off.(ne) = nc] *)
    mutable comp_mask : int array;
    mutable comp_lat : int array;
    mutable bound : int;  (** [lat_bound] of the closed nodes; -1 once poisoned *)
    mutable floors : (int * int * component list) list;
  }

  let create ?(edges = 1024) () =
    let cap = max 16 edges in
    {
      n_instrs = 0;
      cur = -1;
      ne = 0;
      nc = 0;
      first_in = Array.make (cap / 2) 0;
      src = Array.make cap 0;
      kind = Array.make cap 0;
      base = Array.make cap 0;
      removed = Array.make cap 0;
      comp_off = Array.make (cap + 1) 0;
      comp_mask = Array.make (cap / 4) 0;
      comp_lat = Array.make (cap / 4) 0;
      bound = 0;
      floors = [];
    }

  (* [a] with room for index [i] *)
  let grow a i =
    if i < Array.length a then a
    else begin
      let a' = Array.make (max (2 * Array.length a) (i + 1)) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end

  (** Constrain [node] to arrive no earlier than [base] plus the (category
      owned) components. *)
  let add_floor b ~node ~base ~components =
    b.floors <- (node, base, components) :: b.floors

  let note_instr b = b.n_instrs <- b.n_instrs + 1

  (* Fold the closed node [cur]'s largest full (no idealization) incoming
     latency into the bound: a longest path visits nodes in topological
     order, so its length is at most the sum of these maxima.  Negative
     latencies break both the bound and the packed evaluator's
     non-negativity invariant, so they poison it to -1. *)
  let close_node b =
    if b.cur >= 0 && b.bound >= 0 then begin
      let mx = ref 0 and neg = ref false in
      for k = b.first_in.(b.cur) to b.ne - 1 do
        let l = ref b.base.(k) in
        if !l < 0 then neg := true;
        for j = b.comp_off.(k) to b.comp_off.(k + 1) - 1 do
          if b.comp_lat.(j) < 0 then neg := true;
          l := !l + b.comp_lat.(j)
        done;
        if !l > !mx then mx := !l
      done;
      b.bound <- (if !neg then -1 else b.bound + !mx)
    end

  (* close [cur] and open every node up to [v] at the current edge count *)
  let advance b v =
    close_node b;
    if v >= Array.length b.first_in then b.first_in <- grow b.first_in v;
    for u = b.cur + 1 to v do
      b.first_in.(u) <- b.ne
    done;
    b.cur <- v

  let add_edge b ~src ~dst ~kind ?(base = 0) ?removed_by () =
    if src < 0 || src >= dst then
      invalid_arg "Graph.Builder.add_edge: edges must point forward";
    if dst < b.cur then
      invalid_arg "Graph.Builder.add_edge: destinations must not decrease";
    if dst > b.cur then advance b dst;
    let k = b.ne in
    if k >= Array.length b.src then begin
      b.src <- grow b.src k;
      b.kind <- grow b.kind k;
      b.base <- grow b.base k;
      b.removed <- grow b.removed k;
      b.comp_off <- grow b.comp_off (Array.length b.src)
    end;
    b.src.(k) <- src;
    b.kind.(k) <- edge_kind_tag kind;
    b.base.(k) <- base;
    b.removed.(k) <- (match removed_by with None -> 0 | Some c -> cat_mask c);
    b.ne <- k + 1;
    b.comp_off.(k + 1) <- b.nc

  let add_component b cat lat =
    if b.ne = 0 then invalid_arg "Graph.Builder.add_component: no edge yet";
    let j = b.nc in
    if j >= Array.length b.comp_mask then begin
      b.comp_mask <- grow b.comp_mask j;
      b.comp_lat <- grow b.comp_lat j
    end;
    b.comp_mask.(j) <- cat_mask cat;
    b.comp_lat.(j) <- lat;
    b.nc <- j + 1;
    b.comp_off.(b.ne) <- b.nc

  let c_graphs = Telemetry.counter "graph.finished"
  let c_nodes = Telemetry.counter "graph.nodes"
  let c_edges = Telemetry.counter "graph.edges"
  let c_components = Telemetry.counter "graph.edge_components"

  (* Close the last node, compile the floors and hand the arrays over to
     the graph. *)
  let finish b : t =
    let sp = Telemetry.start_span "graph.compile" in
    let num_instrs = b.n_instrs in
    let n_nodes = 5 * num_instrs in
    if b.cur >= n_nodes then
      invalid_arg "Graph.Builder.finish: edge past the last instruction";
    advance b n_nodes;
    let sorted = List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b) b.floors in
    let floors = Array.of_list sorted in
    let comps = Array.of_list (List.concat_map (fun (_, _, cs) -> cs) sorted) in
    let f_off = Array.make (Array.length floors + 1) 0 in
    Array.iteri (fun i (_, _, cs) -> f_off.(i + 1) <- f_off.(i) + List.length cs) floors;
    (* floors only raise a node to a fixed value, so adding their totals
       keeps the bound sound *)
    let bound =
      Array.fold_left
        (fun acc (_, base, cs) ->
          let lats = base :: List.map (fun c -> c.lat) cs in
          if acc < 0 || List.exists (fun l -> l < 0) lats then -1
          else List.fold_left ( + ) acc lats)
        b.bound floors
    in
    let g =
      {
        num_instrs;
        first_in = Array.sub b.first_in 0 (n_nodes + 1);
        floors = b.floors;
        compiled =
          {
            e_src = b.src;
            e_kind = b.kind;
            e_base = b.base;
            e_removed = b.removed;
            e_comp_off = b.comp_off;
            comp_mask = b.comp_mask;
            comp_lat = b.comp_lat;
            f_node = Array.map (fun (v, _, _) -> v) floors;
            f_base = Array.map (fun (_, base, _) -> base) floors;
            f_off;
            f_comp_mask = Array.map (fun c -> cat_mask c.cat) comps;
            f_comp_lat = Array.map (fun c -> c.lat) comps;
            lat_bound = bound;
          };
      }
    in
    Telemetry.incr c_graphs;
    Telemetry.add c_nodes n_nodes;
    Telemetry.add c_edges b.ne;
    Telemetry.add c_components b.nc;
    if Telemetry.enabled () then
      Telemetry.end_span sp
        ~attrs:
          [ ("instrs", string_of_int num_instrs); ("edges", string_of_int b.ne) ]
    else Telemetry.end_span sp;
    g
end

(* ---------- compact serialization ---------- *)

(* Existing icost.graphcache.v1 snapshot files fix the byte layout:
   per-edge arrays (empty ones sized to one slot), categories as
   {!Category.to_int} indices with -1 for "never removed", and the floor
   list verbatim. *)
let marshal (g : t) : string =
  let c = g.compiled in
  let ne = num_edges g in
  let nc = c.e_comp_off.(ne) in
  let padded n f =
    let a = Array.make (max 1 n) 0 in
    for i = 0 to n - 1 do
      a.(i) <- f i
    done;
    a
  in
  let dst = edge_dsts g in
  let cat_index m = if m = 0 then -1 else Category.to_int (cat_of_mask m) in
  Marshal.to_string
    ( g.num_instrs,
      ne,
      padded ne (Array.get c.e_src),
      padded ne (Array.get dst),
      padded ne (Array.get c.e_kind),
      padded ne (Array.get c.e_base),
      padded ne (fun k -> cat_index c.e_removed.(k)),
      Array.sub c.e_comp_off 0 (ne + 1),
      padded nc (fun j -> cat_index c.comp_mask.(j)),
      padded nc (Array.get c.comp_lat),
      g.first_in,
      g.floors )
    []

(* Decoding replays the edges into a {!Builder} in CSR order, which
   reproduces the CSR arrays, the floor list and the bound exactly. *)
let unmarshal (s : string) : t =
  let malformed () = failwith "Graph.unmarshal: malformed bytes" in
  let ( num_instrs,
        ne,
        src,
        dst,
        kindi,
        base,
        removed,
        comp_off,
        comp_cat,
        comp_lat,
        _first_in,
        floors ) =
    try
      (Marshal.from_string s 0
        : int
          * int
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * (int * int * component list) list)
    with Failure _ -> malformed ()
  in
  if ne < 0 then malformed ();
  (* short arrays surface as out-of-bounds [Invalid_argument]s *)
  try
    let b = Builder.create ~edges:ne () in
    for _ = 1 to num_instrs do
      Builder.note_instr b
    done;
    for k = 0 to ne - 1 do
      Builder.add_edge b ~src:src.(k) ~dst:dst.(k) ~kind:(edge_kind_of_tag kindi.(k))
        ~base:base.(k)
        ?removed_by:(if removed.(k) < 0 then None else Some (Category.of_int removed.(k)))
        ();
      for j = comp_off.(k) to comp_off.(k + 1) - 1 do
        Builder.add_component b (Category.of_int comp_cat.(j)) comp_lat.(j)
      done
    done;
    List.iter
      (fun (node, base, components) -> Builder.add_floor b ~node ~base ~components)
      (List.rev floors);
    Builder.finish b
  with Invalid_argument _ -> malformed ()

(* ---------- evaluation ---------- *)

(* [t] with [override] applied to copies of its latency arrays: an
   overridden edge is never removed and carries exactly the given
   latency. *)
let with_override (t : t) (override : edge -> int option) : t =
  let c = t.compiled in
  let e_base = Array.copy c.e_base and e_removed = Array.copy c.e_removed in
  let comp_lat = Array.copy c.comp_lat in
  Array.iteri
    (fun k e ->
      Option.iter
        (fun l ->
          e_base.(k) <- l;
          e_removed.(k) <- 0;
          Array.fill comp_lat c.e_comp_off.(k) (c.e_comp_off.(k + 1) - c.e_comp_off.(k)) 0)
        (override e))
    (edges t);
  { t with compiled = { c with e_base; e_removed; comp_lat; lat_bound = -1 } }

(* The scalar max-plus recurrence under one idealization [s], over nodes
   [n_pinned, num_nodes t): [time] already holds the pinned prefix, and
   [ext] (sorted by node) adds per-subset lower bounds, read at index
   [lane] of each row.  Every edge points forward, so one pass in node
   order is a topological sweep. *)
let eval_range (t : t) (s : Category.Set.t) (time : int array) ~n_pinned
    ~(ext : (int * int array) array) ~lane : unit =
  let c = t.compiled in
  let nf = Array.length c.f_node in
  let fi = ref 0 in
  while !fi < nf && c.f_node.(!fi) < n_pinned do
    incr fi
  done;
  let nx = Array.length ext in
  let xi = ref 0 in
  while !xi < nx && fst ext.(!xi) < n_pinned do
    incr xi
  done;
  for v = n_pinned to num_nodes t - 1 do
    let best = ref 0 in
    for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
      if c.e_removed.(k) land s = 0 then begin
        let lat = ref c.e_base.(k) in
        for j = c.e_comp_off.(k) to c.e_comp_off.(k + 1) - 1 do
          if c.comp_mask.(j) land s = 0 then lat := !lat + c.comp_lat.(j)
        done;
        let cand = time.(c.e_src.(k)) + !lat in
        if cand > !best then best := cand
      end
    done;
    while !fi < nf && c.f_node.(!fi) = v do
      let lat = floor_lat c s !fi in
      if lat > !best then best := lat;
      incr fi
    done;
    while !xi < nx && fst ext.(!xi) = v do
      let lat = (snd ext.(!xi)).(lane) in
      if lat > !best then best := lat;
      incr xi
    done;
    time.(v) <- !best
  done

(** [eval_into ?ideal t time] fills [time] (length >= [num_nodes t]) with
    the arrival time of every node under the idealization, in one
    topological pass over the compiled arrays, allocating nothing.  The
    inner loop is the hot path of every scalar graph-backed cost query and
    of the {!eval_subsets_scalar} reference. *)
let c_evals = Telemetry.counter "graph.evals"

let eval_into ?(ideal = Category.Set.empty) (t : t) (time : int array) : unit =
  if Array.length time < num_nodes t then
    invalid_arg "Graph.eval_into: buffer too short";
  (* single branch + atomic add; keeps this path allocation-free *)
  Telemetry.incr c_evals;
  eval_range t ideal time ~n_pinned:0 ~ext:[||] ~lane:0

(** [eval ?ideal ?override t] computes the arrival time of every node under
    the given idealization (default: none), in one topological pass.  All
    edges point forward in node order, so node order is a topological
    order.  [override], when given, may replace an edge's latency
    (returning [None] leaves the idealized latency in force); it enables
    finer-grained what-if queries than category idealization, e.g. zeroing
    a single instruction's execution latency (Tune et al.'s per-instruction
    cost).  Without an override the query runs on the compiled flat-array
    representation. *)
let eval ?(ideal = Category.Set.empty) ?override (t : t) : int array =
  let t = match override with Some o -> with_override t o | None -> t in
  let time = Array.make (num_nodes t) 0 in
  eval_into ~ideal t time;
  time

(** Critical-path length: arrival time of the last C node (plus one cycle to
    retire it), i.e. the modeled execution time. *)
let critical_length ?ideal ?override (t : t) : int =
  if t.num_instrs = 0 then 0
  else
    let time = eval ?ideal ?override t in
    time.(node ~seq:(t.num_instrs - 1) ~kind:C) + 1

(** [eval_subsets_scalar t sets] computes {!critical_length} under every
    idealization in [sets] with one full scalar graph pass per subset,
    sweeping the compiled graph with one scratch buffer per pool job (zero
    per-query allocation) and fanning the sweep out across the domain
    pool.  Results are index-aligned with [sets].  This is the reference
    implementation the bit-sliced {!eval_subsets} is checked against (the
    [sliced-eval-exact] conformance law) and the fallback oracle for
    differential debugging. *)
let eval_subsets_scalar (t : t) (sets : Category.Set.t array) : int array =
  let m = Array.length sets in
  let out = Array.make m 0 in
  if t.num_instrs > 0 && m > 0 then begin
    let sp = Telemetry.start_span "graph.eval_subsets_scalar" in
    let sink = node ~seq:(t.num_instrs - 1) ~kind:C in
    Icost_util.Pool.parallel_chunks m (fun ~lo ~hi ->
        let buf = Array.make (num_nodes t) 0 in
        for i = lo to hi - 1 do
          eval_into ~ideal:sets.(i) t buf;
          out.(i) <- buf.(sink) + 1
        done);
    if Telemetry.enabled () then
      Telemetry.end_span sp ~attrs:[ ("sets", string_of_int m) ]
    else Telemetry.end_span sp
  end;
  out

(* ---------- bit-sliced evaluation ---------- *)

let max_lanes = 64

let c_sliced = Telemetry.counter "graph.sliced_evals"
let c_wide = Telemetry.counter "graph.wide_evals"
let c_scalar = Telemetry.counter "graph.scalar_fallbacks"

(* Lanes are packed [fpw] to a 63-bit int in [fw]-bit fields, each a
   [fw - 1]-bit value plus one guard bit: 3 x 21 when every value fits 20
   bits, 2 x 31 when it fits 30.  Values are non-negative and bounded, so
   field sums never carry across field boundaries, and a word-wide max
   costs ~8 ALU ops for all of its lanes (H = the guard bits):

     m  = ((cand | H) - cur) & H     guard of each field survives the
                                     subtract iff cand >= cur there
     fm = m - (m >> (fw - 1))        expand surviving guards to value masks
     max = (cand & fm) | (cur & ~fm)

   Keep rows hold per-field VALUE masks (all ones when the category is not
   idealized in that lane, 0 when it is), so component contributions are
   [(lat * rep) land row] and removal masks the whole candidate to 0
   (sound because times are non-negative, so max(cur, 0) = cur). *)
type layout = { fw : int; fpw : int; rep : int (** 1 in every field *) }

let narrow = { fw = 21; fpw = 3; rep = 1 lor (1 lsl 21) lor (1 lsl 42) }
let wide = { fw = 31; fpw = 2; rep = 1 lor (1 lsl 31) }
let vmax lay = (1 lsl (lay.fw - 1)) - 1

let[@inline always] pmax ~high ~sh cur cand =
  let m = ((cand lor high) - cur) land high in
  let fm = m - (m lsr sh) in
  cand land fm lor (cur land lnot fm)

(* Per-job scratch: the node-major slab ([pw] words per node), a per-word
   latency accumulator, the set index priced by each field and the keep
   rows, one per singleton category mask plus a shared all-keep row for
   mask 0 (the only other mask the builder emits). *)
type scratch = {
  slab : int array;
  latbuf : int array;
  lane : int array;
  ktab : int array array;
}

let make_scratch lay slab pw =
  let keep_all = Array.make pw (vmax lay * lay.rep) in
  let ktab = Array.make (1 lsl Category.count) keep_all in
  for ci = 0 to Category.count - 1 do
    ktab.(1 lsl ci) <- Array.make pw 0
  done;
  { slab; latbuf = Array.make pw 0; lane = Array.make (lay.fpw * pw) 0; ktab }

(** Recycled evaluation slabs, so a caller that evaluates many graphs
    (a streamed run's segments) holds at most one slab per pool job. *)
type workspace = { mu : Mutex.t; mutable free : int array list }

let workspace () = { mu = Mutex.create (); free = [] }

let take_slab ws len =
  Mutex.lock ws.mu;
  let a = match ws.free with a :: tl -> ws.free <- tl; a | [] -> [||] in
  Mutex.unlock ws.mu;
  if Array.length a >= len then a else Array.make len 0

let give_slab ws a =
  Mutex.lock ws.mu;
  ws.free <- a :: ws.free;
  Mutex.unlock ws.mu

(* One bit-sliced topological pass pricing the [nl] subsets
   [sets.(idx.(lo + l))] at once, [lay.fpw] lanes per word in
   [pw = ceil (nl / fpw)] words per node.  The lane vector is padded to
   whole words with copies of the last subset, so padding fields run a
   real lane's recurrence and the overflow bound covers them.

   Each lane runs exactly the max-plus recurrence of {!eval_range} -- the
   same edges in the same order with the same integer latencies -- on
   times rebased by the lane's offset [off.(i)] (see {!eval_pinned}).  The
   first [n_pinned] nodes are loaded from [pinned] (absolute times,
   node-major, stride [Array.length sets]) instead of evaluated.  A
   node's first in-edge stores its candidate directly (rebased candidates
   are non-negative, so the store doubles as the zero-init).  Floors,
   compiled and external, are rebased per field and clamped at 0.  Each
   [extract] entry [(node, dst, doff)] receives the node's absolute time
   under [sets.(i)] in [dst.(doff + i)], for each priced [i]. *)
let eval_chunk (lay : layout) (t : t) (sets : Category.Set.t array) ~idx ~lo ~nl
    ~n_pinned ~(pinned : int array) ~(ext : (int * int array) array)
    ~(off : int array) ~(extract : (int * int array * int) array)
    (sc : scratch) : unit =
  let n = num_nodes t and m = Array.length sets in
  let c = t.compiled in
  let fw = lay.fw and fpw = lay.fpw in
  let sh = fw - 1 in
  let vmax = vmax lay and rep = lay.rep in
  let high = (vmax + 1) * rep in
  let pw = (nl + fpw - 1) / fpw in
  let { slab; latbuf; lane; ktab } = sc in
  for f = 0 to (fpw * pw) - 1 do
    lane.(f) <- idx.(lo + Int.min f (nl - 1))
  done;
  for ci = 0 to Category.count - 1 do
    let mask = 1 lsl ci in
    let row = ktab.(mask) in
    for w = 0 to pw - 1 do
      let r = ref 0 in
      for f = 0 to fpw - 1 do
        if mask land sets.(lane.((fpw * w) + f)) = 0 then
          r := !r lor (vmax lsl (fw * f))
      done;
      row.(w) <- !r
    done
  done;
  (* raise node [v]'s fields to the non-negative values [value field] *)
  let raise_to v value =
    for w = 0 to pw - 1 do
      let r = ref 0 in
      for f = 0 to fpw - 1 do
        r := !r lor (value ((fpw * w) + f) lsl (fw * f))
      done;
      slab.((v * pw) + w) <- pmax ~high ~sh slab.((v * pw) + w) !r
    done
  in
  for v = 0 to n_pinned - 1 do
    Array.fill slab (v * pw) pw 0;
    raise_to v (fun f ->
        let i = lane.(f) in
        pinned.((v * m) + i) - off.(i))
  done;
  let nf = Array.length c.f_node in
  let fi = ref 0 in
  while !fi < nf && c.f_node.(!fi) < n_pinned do
    incr fi
  done;
  let nx = Array.length ext in
  let xi = ref 0 in
  while !xi < nx && fst ext.(!xi) < n_pinned do
    incr xi
  done;
  for v = n_pinned to n - 1 do
    let boff = v * pw in
    let k0 = t.first_in.(v) in
    let hi = t.first_in.(v + 1) in
    if k0 = hi then
      for w = 0 to pw - 1 do
        Array.unsafe_set slab (boff + w) 0
      done
    else
      for k = k0 to hi - 1 do
        let rm = Array.unsafe_get c.e_removed k in
        let o0 = Array.unsafe_get c.e_comp_off k in
        let o1 = Array.unsafe_get c.e_comp_off (k + 1) in
        let soff = Array.unsafe_get c.e_src k * pw in
        let baserep = Array.unsafe_get c.e_base k * rep in
        if o0 = o1 then
          if rm = 0 then
            (* latency identical in every lane: pure streaming max *)
            if k = k0 then
              for w = 0 to pw - 1 do
                Array.unsafe_set slab (boff + w)
                  (Array.unsafe_get slab (soff + w) + baserep)
              done
            else
              for w = 0 to pw - 1 do
                let cur = Array.unsafe_get slab (boff + w) in
                let cand = Array.unsafe_get slab (soff + w) + baserep in
                Array.unsafe_set slab (boff + w) (pmax ~high ~sh cur cand)
              done
          else begin
            (* removable, constant latency (CD/FBW/CBW/PD/PP): the keep
               row zeroes the candidate in idealized lanes *)
            let rrow = Array.unsafe_get ktab rm in
            if k = k0 then
              for w = 0 to pw - 1 do
                Array.unsafe_set slab (boff + w)
                  ((Array.unsafe_get slab (soff + w) + baserep)
                  land Array.unsafe_get rrow w)
              done
            else
              for w = 0 to pw - 1 do
                let cur = Array.unsafe_get slab (boff + w) in
                let cand =
                  (Array.unsafe_get slab (soff + w) + baserep)
                  land Array.unsafe_get rrow w
                in
                Array.unsafe_set slab (boff + w) (pmax ~high ~sh cur cand)
              done
          end
        else if rm = 0 && o0 + 1 = o1 then begin
          (* one component, never removed: fold it through its keep row *)
          let crow = Array.unsafe_get ktab (Array.unsafe_get c.comp_mask o0) in
          let d0 = Array.unsafe_get c.comp_lat o0 * rep in
          if k = k0 then
            for w = 0 to pw - 1 do
              Array.unsafe_set slab (boff + w)
                (Array.unsafe_get slab (soff + w)
                + baserep
                + (d0 land Array.unsafe_get crow w))
            done
          else
            for w = 0 to pw - 1 do
              let cur = Array.unsafe_get slab (boff + w) in
              let cand =
                Array.unsafe_get slab (soff + w)
                + baserep
                + (d0 land Array.unsafe_get crow w)
              in
              Array.unsafe_set slab (boff + w) (pmax ~high ~sh cur cand)
            done
        end
        else begin
          (* general: accumulate per-word latency component-major, so the
             component data is read once per edge; [ktab.(0)] keeps every
             field, so never-removed edges pass the removal mask *)
          for w = 0 to pw - 1 do
            Array.unsafe_set latbuf w baserep
          done;
          for j = o0 to o1 - 1 do
            let crow = Array.unsafe_get ktab (Array.unsafe_get c.comp_mask j) in
            let d = Array.unsafe_get c.comp_lat j * rep in
            for w = 0 to pw - 1 do
              Array.unsafe_set latbuf w
                (Array.unsafe_get latbuf w + (d land Array.unsafe_get crow w))
            done
          done;
          let rrow = Array.unsafe_get ktab rm in
          if k = k0 then
            for w = 0 to pw - 1 do
              Array.unsafe_set slab (boff + w)
                ((Array.unsafe_get slab (soff + w) + Array.unsafe_get latbuf w)
                land Array.unsafe_get rrow w)
            done
          else
            for w = 0 to pw - 1 do
              let cur = Array.unsafe_get slab (boff + w) in
              let cand =
                (Array.unsafe_get slab (soff + w) + Array.unsafe_get latbuf w)
                land Array.unsafe_get rrow w
              in
              Array.unsafe_set slab (boff + w) (pmax ~high ~sh cur cand)
            done
        end
      done;
    while !fi < nf && c.f_node.(!fi) = v do
      let fl = !fi in
      raise_to v (fun f ->
          let i = lane.(f) in
          Int.max 0 (floor_lat c sets.(i) fl - off.(i)));
      incr fi
    done;
    while !xi < nx && fst ext.(!xi) = v do
      let row = snd ext.(!xi) in
      raise_to v (fun f ->
          let i = lane.(f) in
          Int.max 0 (row.(i) - off.(i)));
      incr xi
    done
  done;
  Array.iter
    (fun (v, dst, doff) ->
      for l = 0 to nl - 1 do
        dst.(doff + lane.(l)) <-
          ((slab.((v * pw) + (l / fpw)) lsr (fw * (l mod fpw))) land vmax)
          + off.(lane.(l))
      done)
    extract

(** [eval_pinned ?lanes ?ws t sets ~n_pinned ~pinned ~ext_floors ~extract]
    evaluates [t] under every idealization in [sets] ([m] of them) and
    writes the arrival times of the [extract]ed nodes.  See graph.mli. *)
let eval_pinned ?(lanes = 32) ?ws (t : t) (sets : Category.Set.t array)
    ~n_pinned ~(pinned : int array) ~(ext_floors : (int * int array) array)
    ~(extract : (int * int array * int) array) : unit =
  let m = Array.length sets in
  if t.num_instrs > 0 && m > 0 then begin
    let n = num_nodes t in
    let lanes = max 1 (min lanes (min max_lanes m)) in
    (* Rebase each lane on its earliest pinned time.  Every later node is
       reached from the prefix through never-removed, non-negative edges
       (DD chains the dispatches, DR/RE/EP/PC the rest), so its true time
       is >= the offset: the zero-init and removed-edge zero candidates
       are dominated, and floors below the offset clamp to 0 exactly. *)
    let off = Array.make m (if n_pinned > 0 then max_int else 0) in
    for v = 0 to n_pinned - 1 do
      for i = 0 to m - 1 do
        off.(i) <- Int.min off.(i) pinned.((v * m) + i)
      done
    done;
    let top = ref 0 in
    let rise row base =
      for i = 0 to m - 1 do
        top := Int.max !top (row.(base + i) - off.(i))
      done
    in
    for v = 0 to n_pinned - 1 do
      rise pinned (v * m)
    done;
    Array.iter (fun (_, row) -> rise row 0) ext_floors;
    (* Lanes whose sets differ only in categories the graph never
       mentions, and that agree on every pinned and floor value, run
       identical recurrences: price the first of each class ([idx]) and
       copy its times to the rest ([rep]). *)
    let c = t.compiled in
    let present = ref 0 in
    for k = 0 to num_edges t - 1 do
      present := !present lor c.e_removed.(k)
    done;
    Array.iter (fun mk -> present := !present lor mk) c.comp_mask;
    Array.iter (fun mk -> present := !present lor mk) c.f_comp_mask;
    let first = Hashtbl.create m in
    let same i j =
      let rec pins v =
        v >= n_pinned || (pinned.((v * m) + i) = pinned.((v * m) + j) && pins (v + 1))
      in
      pins 0 && Array.for_all (fun (_, row) -> row.(i) = row.(j)) ext_floors
    in
    let rep =
      Array.init m (fun i ->
          match Hashtbl.find_opt first (sets.(i) land !present) with
          | Some j when same i j -> j
          | Some _ -> i
          | None ->
            Hashtbl.add first (sets.(i) land !present) i;
            i)
    in
    let idx = Array.of_list (List.filter (fun i -> rep.(i) = i) (List.init m Fun.id)) in
    let m' = Array.length idx in
    (* every rebased time is at most the largest rebased start plus the
       longest path; +1 keeps the reported critical length in range too *)
    let fits lay =
      t.compiled.lat_bound >= 0 && !top + t.compiled.lat_bound + 1 <= vmax lay
    in
    (match List.find_opt fits [ narrow; wide ] with
     | Some lay ->
       let ws = match ws with Some ws -> ws | None -> workspace () in
       let pwmax = (lanes + lay.fpw - 1) / lay.fpw in
       let nchunks = (m' + lanes - 1) / lanes in
       Icost_util.Pool.parallel_chunks nchunks (fun ~lo ~hi ->
           let slab = take_slab ws (n * pwmax) in
           Fun.protect
             ~finally:(fun () -> give_slab ws slab)
             (fun () ->
               let sc = make_scratch lay slab pwmax in
               for ch = lo to hi - 1 do
                 let slo = ch * lanes in
                 Telemetry.incr c_sliced;
                 if lay == wide then Telemetry.incr c_wide;
                 eval_chunk lay t sets ~idx ~lo:slo ~nl:(min lanes (m' - slo))
                   ~n_pinned ~pinned ~ext:ext_floors ~off ~extract sc
               done))
     | None ->
       Telemetry.incr c_scalar;
       Icost_util.Pool.parallel_chunks m' (fun ~lo ~hi ->
           let time = Array.make n 0 in
           for p = lo to hi - 1 do
             let i = idx.(p) in
             for v = 0 to n_pinned - 1 do
               time.(v) <- pinned.((v * m) + i)
             done;
             eval_range t sets.(i) time ~n_pinned ~ext:ext_floors ~lane:i;
             Array.iter (fun (v, dst, doff) -> dst.(doff + i) <- time.(v)) extract
           done));
    if m' < m then
      Array.iter
        (fun (_, dst, doff) ->
          for i = 0 to m - 1 do
            dst.(doff + i) <- dst.(doff + rep.(i))
          done)
        extract
  end

(** [eval_slices ?lanes t sets] is {!eval_subsets_scalar} computed
    bit-sliced: the unpinned case of {!eval_pinned}, pricing up to [lanes]
    subsets (clamped to 1..{!max_lanes}, default {!max_lanes}) per pass
    over the compiled edge arrays.  Per lane the recurrence is identical
    to the scalar pass, so results are bit-identical regardless of
    [lanes] or the pool job count; chunks write disjoint slices of the
    output. *)
let eval_slices ?(lanes = max_lanes) (t : t) (sets : Category.Set.t array) :
    int array =
  let m = Array.length sets in
  let out = Array.make m 0 in
  if t.num_instrs > 0 && m > 0 then begin
    let sp = Telemetry.start_span "graph.eval_subsets" in
    let sink = node ~seq:(t.num_instrs - 1) ~kind:C in
    eval_pinned ~lanes t sets ~n_pinned:0 ~pinned:[||] ~ext_floors:[||]
      ~extract:[| (sink, out, 0) |];
    for i = 0 to m - 1 do
      out.(i) <- out.(i) + 1
    done;
    if Telemetry.enabled () then
      Telemetry.end_span sp
        ~attrs:[ ("sets", string_of_int m); ("lanes", string_of_int lanes) ]
    else Telemetry.end_span sp
  end;
  out

(** [eval_subsets t sets] computes {!critical_length} under every
    idealization in [sets]; results are index-aligned with [sets].  The
    implementation is the bit-sliced {!eval_slices}; {!eval_subsets_scalar}
    remains as the reference oracle. *)
let eval_subsets (t : t) (sets : Category.Set.t array) : int array =
  (* 32 lanes measures fastest on the 10k-instr kernels: enough to amortize
     per-edge decode, small enough that a chunk's slab stays cache-resident *)
  eval_slices ~lanes:32 t sets

(** Cost of a set of edges (Tune et al.): speedup from zeroing the latency
    of every edge matching [pred]. *)
let cost_of_edges ?ideal (t : t) pred : int =
  let base = critical_length ?ideal t in
  let zeroed = critical_length ?ideal ~override:(fun e -> if pred e then Some 0 else None) t in
  base - zeroed

(** Cost of one dynamic instruction's execution latency: zero its EP edge. *)
let instr_cost ?ideal (t : t) ~seq : int =
  cost_of_edges ?ideal t (fun e -> e.kind = EP && seq_of_node e.dst = seq)

(** Slack of a node: how much later it could arrive without growing the
    critical path.  Computed from forward times and backward requirement
    times in two passes. *)
let slacks ?(ideal = Category.Set.empty) (t : t) : int array =
  let n = num_nodes t in
  let c = t.compiled in
  let time = eval ~ideal t in
  let cp = if n = 0 then 0 else time.(n - 1) in
  (* latest(v): latest arrival of v keeping the last C node at cp *)
  let latest = Array.make n max_int in
  if n > 0 then latest.(n - 1) <- cp;
  for v = n - 1 downto 0 do
    for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
      if latest.(v) <> max_int && c.e_removed.(k) land ideal = 0 then begin
        let u = c.e_src.(k) and l = latest.(v) - edge_lat c ideal k in
        if l < latest.(u) then latest.(u) <- l
      end
    done
  done;
  Array.init n (fun v ->
      if latest.(v) = max_int then max_int else latest.(v) - time.(v))

(** [critical_path t] returns the node ids of one critical path, last node
    first, together with the edge kinds taken (paired with the *downstream*
    node).  Ties are broken toward the earliest incoming edge. *)
let critical_path ?(ideal = Category.Set.empty) (t : t) : (int * edge_kind option) list =
  if t.num_instrs = 0 then []
  else begin
    let c = t.compiled in
    let time = eval ~ideal t in
    let rec walk v acc =
      (* stop at the first (earliest) incoming edge on the critical path *)
      let rec first k =
        if k >= t.first_in.(v + 1) then -1
        else if
          c.e_removed.(k) land ideal = 0
          && time.(c.e_src.(k)) + edge_lat c ideal k = time.(v)
        then k
        else first (k + 1)
      in
      let k = first t.first_in.(v) in
      if k >= 0 && time.(v) > 0 then
        walk c.e_src.(k) ((v, Some edge_kinds.(c.e_kind.(k))) :: acc)
      else (v, None) :: acc
    in
    walk (node ~seq:(t.num_instrs - 1) ~kind:C) []
  end

(** Count of edges by kind (model statistics and tests). *)
let edge_histogram (t : t) =
  let tbl = Hashtbl.create 12 in
  for k = 0 to num_edges t - 1 do
    let kind = edge_kinds.(t.compiled.e_kind.(k)) in
    Hashtbl.replace tbl kind (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind))
  done;
  tbl

(** Graphviz DOT rendering (for small graphs, e.g. the Figure 2 demo).
    Critical-path edges are drawn bold. *)
let to_dot ?(ideal = Category.Set.empty) (t : t) : string =
  let time = eval ~ideal t in
  let es = edges t in
  let on_cp =
    let cp = critical_path ~ideal t in
    let tbl = Hashtbl.create 64 in
    let rec mark = function
      | (v, _) :: ((w, _) :: _ as rest) ->
        Hashtbl.replace tbl (v, w) ();
        mark rest
      | _ -> ()
    in
    mark cp;
    fun src dst -> Hashtbl.mem tbl (src, dst)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph microexecution {\n  rankdir=LR;\n";
  for i = 0 to t.num_instrs - 1 do
    Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%d { label=\"i%d\";" i i);
    Array.iter
      (fun k ->
        let v = node ~seq:i ~kind:k in
        Buffer.add_string buf
          (Printf.sprintf " n%d [label=\"%s%d\\nt=%d\"];" v (kind_name k) i time.(v)))
      node_kinds;
    Buffer.add_string buf " }\n"
  done;
  Array.iter
    (fun e ->
      let lat = Option.value ~default:0 (edge_latency ideal e) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s:%d\"%s];\n" e.src e.dst
           (edge_kind_name e.kind) lat
           (if on_cp e.src e.dst then " penwidth=3" else "")))
    es;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** Compact text rendering of a small graph: one line per instruction with
    node times, then the edge list. *)
let pp_small ppf ?(ideal = Category.Set.empty) (t : t) =
  let time = eval ~ideal t in
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.num_instrs - 1 do
    Format.fprintf ppf "i%-3d" i;
    Array.iter
      (fun k ->
        Format.fprintf ppf "  %s=%-4d" (kind_name k) time.(node ~seq:i ~kind:k))
      node_kinds;
    Format.fprintf ppf "@,"
  done;
  Array.iter
    (fun e ->
      match edge_latency ideal e with
      | None -> ()
      | Some lat ->
        Format.fprintf ppf "%s -> %s  %s lat=%d@," (node_name e.src) (node_name e.dst)
          (edge_kind_name e.kind) lat)
    (edges t);
  Format.fprintf ppf "@]"
