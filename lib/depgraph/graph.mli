(** The microexecution dependence-graph model (Tables 2 and 3 of the paper).

    Each dynamic instruction contributes five nodes — [D]ispatch, [R]eady,
    [E]xecute, com[P]lete, [C]ommit — connected by latency-labelled
    dependence edges (see {!edge_kind}).  Edge latencies are decomposed by
    owning {!Icost_core.Category}, so idealizing a category set is a pure
    re-evaluation of the graph: owned components contribute zero and some
    edges (PD, CD, FBW, CBW, PP) disappear entirely. *)

module Category = Icost_core.Category

type node_kind = D | R | E | P | C

val node_kinds : node_kind array
val kind_index : node_kind -> int
val kind_name : node_kind -> string

(** The twelve edge kinds of Table 3. *)
type edge_kind =
  | DD  (** in-order dispatch (+ I-cache miss latency) *)
  | FBW  (** finite fetch bandwidth (incl. the taken-branch limit) *)
  | CD  (** finite re-order buffer *)
  | PD  (** control dependence after a mispredicted branch *)
  | DR  (** execution follows dispatch *)
  | PR  (** data dependences (register and memory) *)
  | RE  (** execute after ready (+ contention) *)
  | EP  (** complete after execute (execution latency) *)
  | PP  (** cache-line sharing between loads *)
  | PC  (** commit follows completion *)
  | CC  (** in-order commit (+ store bandwidth) *)
  | CBW  (** commit bandwidth *)

val edge_kind_name : edge_kind -> string

(** A latency component owned by a category: idealizing the category
    zeroes the component. *)
type component = { cat : Category.t; lat : int }

type edge = {
  src : int;  (** node id *)
  dst : int;
  kind : edge_kind;
  base : int;  (** latency no idealization removes *)
  components : component list;
  removed_by : Category.t option;
      (** the edge (constraint included) disappears when this category is
          idealized *)
}

type compiled
(** Flat-int-array form of the edge/floor latency data, the only form a
    graph has: {!Builder} appends straight into it, and the
    allocation-free evaluation paths ({!eval_into}, {!eval_subsets},
    {!eval_pinned}) read nothing else. *)

type t = {
  num_instrs : int;
  first_in : int array;
      (** CSR index: incoming edges of node [v] are the edge indices
          [first_in.(v) .. first_in.(v+1) - 1] (see {!edges}) *)
  floors : (int * int * component list) list;
      (** (node, base, components): minimum arrival times for nodes whose
          stall has no incoming edge to ride on (e.g. the first
          instruction's I-cache miss) *)
  compiled : compiled;
}

val num_nodes : t -> int
val num_edges : t -> int

val node : seq:int -> kind:node_kind -> int
(** Node id of instruction [seq]'s [kind] node. *)

val seq_of_node : int -> int
val kind_of_node : int -> node_kind
val node_name : int -> string

val edges : t -> edge array
(** Boxed records of every edge, in CSR order (sorted by [dst]), rebuilt
    from the flat arrays on each call.  For rendering and inspection; the
    evaluation paths never build them except under an [override]. *)

val edge_latency : Category.Set.t -> edge -> int option
(** Effective latency under an idealization; [None] if the edge is
    removed. *)

(** Incremental construction; see {!Build} for the high-level entry
    points. *)
module Builder : sig
  type b

  val create : ?edges:int -> unit -> b
  (** [edges] is a capacity hint; the arrays grow as needed. *)

  val note_instr : b -> unit

  val add_edge :
    b ->
    src:int ->
    dst:int ->
    kind:edge_kind ->
    ?base:int ->
    ?removed_by:Category.t ->
    unit ->
    unit
  (** Append an edge straight into the flat CSR arrays.  Edges must point
      forward ([src < dst]), so node order is a topological order, and
      must arrive in non-decreasing [dst] order; the edges into one node
      keep their call order, which is the order evaluation scans them and
      {!critical_path} breaks ties in.
      @raise Invalid_argument otherwise. *)

  val add_component : b -> Category.t -> int -> unit
  (** Add a category-owned latency component to the latest edge. *)

  val add_floor : b -> node:int -> base:int -> components:component list -> unit

  val finish : b -> t
  (** Seal the graph: compile the floors and certify the latency bound.
      The graph takes over the builder's arrays, so a builder is finished
      once and not used afterwards. *)
end

val marshal : t -> string
(** Compact byte serialization for snapshotting: flat per-edge int
    arrays, so decoding is allocation-cheap.  The byte layout is the one
    the [icost.graphcache.v1] store has always used (it predates the flat
    representation), so existing snapshot files stay valid. *)

val unmarshal : string -> t
(** Inverse of {!marshal}; replays the edges through a {!Builder}.
    @raise Failure on malformed bytes.  Callers must authenticate the
    bytes first (e.g. a digest check) — this is not hardened against
    adversarial input. *)

val eval : ?ideal:Category.Set.t -> ?override:(edge -> int option) -> t -> int array
(** Arrival time of every node under the idealization (default none), in
    one topological pass.  [override] may replace an edge's latency
    ([None] keeps the idealized latency), enabling finer what-if queries
    than category idealization. *)

val eval_into : ?ideal:Category.Set.t -> t -> int array -> unit
(** Like {!eval}, but fills a caller-provided scratch buffer (length >=
    {!num_nodes}) from the compiled representation, allocating nothing.
    Use for repeated what-if queries over one graph.
    @raise Invalid_argument if the buffer is too short. *)

val critical_length : ?ideal:Category.Set.t -> ?override:(edge -> int option) -> t -> int
(** Arrival of the last C node plus one retire cycle: the modeled
    execution time. *)

val eval_subsets : t -> Category.Set.t array -> int array
(** [eval_subsets t sets] is [Array.map (fun s -> critical_length ~ideal:s t) sets],
    computed by the packed kernel ({!eval_slices} at 32 lanes): each pass
    over the compiled edge arrays prices 32 subsets at once, and subsets
    that can only differ in categories the graph never mentions are priced
    once.  Bit-identical to {!eval_subsets_scalar} (checked by the
    [sliced-eval-exact] conformance law). *)

val eval_subsets_scalar : t -> Category.Set.t array -> int array
(** Reference implementation: one full scalar {!eval_into} pass per
    subset, with one reusable buffer per {!Icost_util.Pool} job, fanned
    out across the pool.  Kept as the differential oracle for the sliced
    path. *)

val max_lanes : int
(** Maximum subsets priced per bit-sliced pass (64): lanes live in one
    node-major int slab, and 64 keeps a full-width pass's per-node working
    set within a cache line budget while already amortizing the edge
    stream 64-fold. *)

val eval_slices : ?lanes:int -> t -> Category.Set.t array -> int array
(** [eval_slices ?lanes t sets]: bit-sliced subset sweep with an explicit
    lane count (clamped to 1..{!max_lanes}; default {!max_lanes}).  Per
    lane the max-plus recurrence is identical to the scalar pass, so the
    result is invariant under [lanes] and the pool job count. *)

type workspace
(** Evaluation slabs recycled across {!eval_pinned} calls, so a caller
    that evaluates many graphs (a streamed run's segments) holds at most
    one slab per pool job. *)

val workspace : unit -> workspace

val eval_pinned :
  ?lanes:int ->
  ?ws:workspace ->
  t ->
  Category.Set.t array ->
  n_pinned:int ->
  pinned:int array ->
  ext_floors:(int * int array) array ->
  extract:(int * int array * int) array ->
  unit
(** The one bit-sliced kernel, with a pinned prefix.  Evaluates [t] under
    each of the [m] idealizations in [sets], [lanes] (default 32, clamped
    to 1..{!max_lanes}) per pass.  The first [n_pinned] nodes are not
    evaluated: their absolute times are loaded from [pinned] (node-major,
    row [v] at [v * m], one entry per set) and their in-edges, if any,
    are ignored.  [ext_floors] (sorted by node, rows of [m]) adds per-set lower
    bounds, e.g. for producers older than the prefix.  Each
    [(node, dst, off)] in [extract] receives the node's time under
    [sets.(i)] in [dst.(off + i)].  With [n_pinned = 0] this is
    {!eval_slices}'s kernel.

    Lanes are packed three to a word in 21-bit fields when every rebased
    time provably fits 20 bits, else two to a word in 31-bit fields, else
    the scalar reference pass runs (negative latencies always take it).
    Each lane is rebased on its earliest pinned time; this is exact when
    every non-pinned node is reachable from the prefix through
    never-removed edges, as {!Build.emit} guarantees with its DD chain.
    Bit-identical to restarting the scalar recurrence mid-graph. *)

val cost_of_edges : ?ideal:Category.Set.t -> t -> (edge -> bool) -> int
(** Speedup from zeroing every matching edge (Tune et al.). *)

val instr_cost : ?ideal:Category.Set.t -> t -> seq:int -> int
(** Cost of one dynamic instruction's execution latency (its EP edge). *)

val slacks : ?ideal:Category.Set.t -> t -> int array
(** Per-node slack: how much later the node could arrive without growing
    the critical path ([max_int] for nodes with no path to the sink). *)

val critical_path : ?ideal:Category.Set.t -> t -> (int * edge_kind option) list
(** One critical path, source first; each element pairs a node with the
    kind of the edge taken {e into} it ([None] at the source). *)

val edge_histogram : t -> (edge_kind, int) Hashtbl.t
val to_dot : ?ideal:Category.Set.t -> t -> string
(** Graphviz rendering (small graphs); critical-path edges drawn bold. *)

val pp_small : Format.formatter -> ?ideal:Category.Set.t -> t -> unit
(** Compact text rendering: node times per instruction, then the edges. *)
