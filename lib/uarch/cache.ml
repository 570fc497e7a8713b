(** Set-associative cache with true-LRU replacement.

    Used for the L1 instruction and data caches, the shared L2, and (with
    associativity = number of entries) the TLBs.  The cache tracks only
    presence, not data — the architectural values live in the interpreter;
    the timing model only needs hit/miss classification. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bits : int;  (** log2 of line size; 0 for TLBs indexed by page *)
  set_bits : int;  (** log2 of [sets] *)
  tags : int array array;  (** [sets][ways], -1 = invalid *)
  stamps : int array array;  (** LRU timestamps *)
  mutable clock : int;
  mutable mru_line : int;  (** line of the last access, -1 before the first *)
  mutable mru_way : int;  (** the way it was found in or filled *)
  mutable accesses : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(** [create ~name ~lines ~ways ~line_size] builds a cache of [lines] total
    lines, [ways]-way associative, with [line_size]-byte lines.  [lines]
    must be a multiple of [ways] and the set count a power of two. *)
let create ~name ~lines ~ways ~line_size =
  if lines mod ways <> 0 then invalid_arg "Cache.create: lines not divisible by ways";
  let sets = lines / ways in
  if not (is_pow2 sets) then invalid_arg "Cache.create: set count must be a power of two";
  if not (is_pow2 line_size) then invalid_arg "Cache.create: line size must be a power of two";
  {
    name;
    sets;
    ways;
    line_bits = log2 line_size;
    set_bits = log2 sets;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    stamps = Array.init sets (fun _ -> Array.make ways 0);
    clock = 0;
    mru_line = -1;
    mru_way = 0;
    accesses = 0;
    misses = 0;
  }

(** Convenience constructor from a size in bytes. *)
let create_bytes ~name ~size ~ways ~line_size =
  create ~name ~lines:(size / line_size) ~ways ~line_size

let line_addr t addr = addr lsr t.line_bits

let set_of t line = line land (t.sets - 1)

let tag_of t line = line lsr t.set_bits

(** [probe t addr] checks for presence without updating any state. *)
let probe t addr =
  let line = line_addr t addr in
  let set = set_of t line in
  let tag = tag_of t line in
  Array.exists (fun w -> w = tag) t.tags.(set)

(** [access t addr] looks up [addr]; on a miss, fills the line, evicting the
    LRU way.  Returns [true] on hit. *)
let access t addr =
  t.clock <- t.clock + 1;
  t.accesses <- t.accesses + 1;
  let line = line_addr t addr in
  let set = set_of t line in
  let tag = tag_of t line in
  let tags = t.tags.(set) and stamps = t.stamps.(set) in
  (* A tag sits in at most one way of its set, so the scan may stop at the
     first match.  The line of the previous access is still in the way it
     was found in or filled into (nothing has touched the cache since), so
     a repeat access is a hit there without a scan: fully associative TLBs
     re-touch the same page on almost every access. *)
  if line = t.mru_line then begin
    stamps.(t.mru_way) <- t.clock;
    true
  end
  else begin
    let rec find w = if w = t.ways || tags.(w) = tag then w else find (w + 1) in
    let found = find 0 in
    t.mru_line <- line;
    if found < t.ways then begin
      stamps.(found) <- t.clock;
      t.mru_way <- found;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* evict LRU *)
      let victim = ref 0 in
      for w = 1 to t.ways - 1 do
        if stamps.(w) < stamps.(!victim) then victim := w
      done;
      tags.(!victim) <- tag;
      stamps.(!victim) <- t.clock;
      t.mru_way <- !victim;
      false
    end
  end

let miss_rate t = if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let stats t = (t.accesses, t.misses)

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0
