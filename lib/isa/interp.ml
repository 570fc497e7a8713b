(** Architectural interpreter.

    Executes a {!Program.t} at the architectural level (registers + memory,
    no timing) and records the committed dynamic instruction stream as a
    {!Trace.t}.  The interpreter is the ground truth that both the timing
    simulator and the shotgun profiler's reconstruction are measured
    against. *)

exception Stuck of string

type config = {
  max_instrs : int;  (** stop after this many dynamic instructions *)
  trap_div_by_zero : bool;
      (** if false, division by zero yields 0 instead of raising *)
}

let default_config = { max_instrs = 100_000; trap_div_by_zero = false }

(* Sparse word-addressed memory.  Aligned words live in pages of
   [page_words] ints, created on first write and found by page number (a
   one-entry cache in front of the page table catches the common run of
   accesses to one page); misaligned byte addresses keep an exact side
   table.  Every address is its own cell, as in a flat address -> word map,
   and a cell never written reads as [fill].  Pages hold 1024 words
   (8 KiB): interpreting 230k instructions of gcc, mcf, gzip, vpr and bzip2
   cost the same within noise at 2^10 to 2^14 words per page, while 2^8
   doubled the time to seed mcf's 278,528-word image. *)
module Paged = struct
  let word_bits = 3
  let page_bits = 10
  let page_words = 1 lsl page_bits

  type t = {
    fill : int;
    pages : (int, int array) Hashtbl.t;
    odd : (int, int) Hashtbl.t;
    mutable last_pn : int;
    mutable last_page : int array;
  }

  let create ~fill =
    {
      fill;
      pages = Hashtbl.create 64;
      odd = Hashtbl.create 16;
      last_pn = min_int;
      last_page = [||];
    }

  let aligned addr = addr land ((1 lsl word_bits) - 1) = 0
  let page_number addr = addr asr (word_bits + page_bits)
  let slot addr = (addr asr word_bits) land (page_words - 1)

  let find_page t pn =
    if pn = t.last_pn then t.last_page
    else
      match Hashtbl.find_opt t.pages pn with
      | Some page ->
        t.last_pn <- pn;
        t.last_page <- page;
        page
      | None -> [||]

  let get t addr =
    if aligned addr then
      let page = find_page t (page_number addr) in
      if Array.length page = 0 then t.fill else Array.unsafe_get page (slot addr)
    else Option.value ~default:t.fill (Hashtbl.find_opt t.odd addr)

  let set t addr v =
    if aligned addr then begin
      let pn = page_number addr in
      let page = find_page t pn in
      let page =
        if Array.length page > 0 then page
        else begin
          let page = Array.make page_words t.fill in
          Hashtbl.replace t.pages pn page;
          t.last_pn <- pn;
          t.last_page <- page;
          page
        end
      in
      Array.unsafe_set page (slot addr) v
    end
    else Hashtbl.replace t.odd addr v
end

type state = {
  regs : int array;
  mem : Paged.t;
  mutable pc_ix : int;  (** static index of the next instruction *)
}

let init_state (p : Program.t) =
  let mem = Paged.create ~fill:0 in
  List.iter (fun (addr, v) -> Paged.set mem addr v) p.mem_image;
  { regs = Array.make Isa.num_regs 0; mem; pc_ix = p.entry }

let read_reg st r = if r = Isa.reg_zero then 0 else st.regs.(r)

let write_reg st r v = if r <> Isa.reg_zero then st.regs.(r) <- v

let read_mem st addr = Paged.get st.mem addr

let write_mem st addr v = Paged.set st.mem addr v

let eval_alu cfg op a b =
  match op with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.Div ->
    if b = 0 then if cfg.trap_div_by_zero then raise (Stuck "division by zero") else 0
    else a / b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 62)
  | Isa.Shr -> a lsr (b land 62)
  | Isa.Slt -> if a < b then 1 else 0

(* Floating-point values live in the integer register file as small integer
   "payloads"; the FPU ops perform the integer analogue.  Only latency class
   matters to the timing model, not numeric semantics. *)
let eval_fpu op a b =
  match op with
  | Isa.Fadd -> a + b
  | Isa.Fmul -> (a * b) land max_int
  | Isa.Fdiv -> if b = 0 then 0 else a / b

let eval_cond cond a b =
  match cond with
  | Isa.Eq -> a = b
  | Isa.Ne -> a <> b
  | Isa.Lt -> a < b
  | Isa.Ge -> a >= b

(* Stateful stepper: the run loop body factored out so callers can pull
   dynamic instructions one at a time (the streaming pipeline interprets
   unbounded traces without materializing them).  [run] below is a thin
   wrapper, so both paths share one source of truth. *)
type stepper = {
  s_cfg : config;
  s_program : Program.t;
  s_len : int;
  s_st : state;
  (* last_writer.(r) = seq of the most recent dynamic instruction that wrote
     register r, or -1 if none yet. *)
  s_last_writer : int array;
  (* last_store maps byte address -> seq of most recent store to it, -1 if
     none. *)
  s_last_store : Paged.t;
  mutable s_count : int;
  mutable s_halted : bool;
}

let stepper ?(config = default_config) (p : Program.t) : stepper =
  {
    s_cfg = config;
    s_program = p;
    s_len = Program.length p;
    s_st = init_state p;
    s_last_writer = Array.make Isa.num_regs (-1);
    s_last_store = Paged.create ~fill:(-1);
    s_count = 0;
    s_halted = false;
  }

let step (s : stepper) : Trace.dyn option =
  if s.s_halted || s.s_count >= s.s_cfg.max_instrs then None
  else begin
    let st = s.s_st in
    let ix = st.pc_ix in
    if ix < 0 || ix >= s.s_len then
      raise (Stuck (Printf.sprintf "PC fell off the program at index %d" ix));
    let instr = Program.fetch s.s_program ix in
    let seq = s.s_count in
    let pc = Isa.pc_of_index ix in
    let reg_deps =
      List.filter_map
        (fun r ->
          let w = s.s_last_writer.(r) in
          if w >= 0 then Some (r, w) else None)
        (Isa.sources instr)
    in
    let mem_addr = ref None in
    let mem_dep = ref None in
    let taken = ref false in
    let next_ix = ref (ix + 1) in
    match instr with
    | Isa.Halt ->
      s.s_halted <- true;
      None
    | _ ->
      (match instr with
       | Isa.Alu { op; rd; rs1; src2 } ->
         let a = read_reg st rs1 in
         let b = match src2 with Isa.Reg r -> read_reg st r | Isa.Imm v -> v in
         write_reg st rd (eval_alu s.s_cfg op a b)
       | Isa.Fpu { op; rd; rs1; rs2 } ->
         write_reg st rd (eval_fpu op (read_reg st rs1) (read_reg st rs2))
       | Isa.Load { rd; base; offset } ->
         let addr = read_reg st base + offset in
         mem_addr := Some addr;
         let w = Paged.get s.s_last_store addr in
         if w >= 0 then mem_dep := Some w;
         write_reg st rd (read_mem st addr)
       | Isa.Store { rs; base; offset } ->
         let addr = read_reg st base + offset in
         mem_addr := Some addr;
         write_mem st addr (read_reg st rs);
         Paged.set s.s_last_store addr seq
       | Isa.Branch { cond; rs1; rs2; target } ->
         if eval_cond cond (read_reg st rs1) (read_reg st rs2) then begin
           taken := true;
           next_ix := target
         end
       | Isa.Jump { target } ->
         taken := true;
         next_ix := target
       | Isa.Call { target } ->
         taken := true;
         write_reg st Isa.reg_ra (Isa.pc_of_index (ix + 1));
         next_ix := target
       | Isa.Ret ->
         taken := true;
         next_ix := Isa.index_of_pc (read_reg st Isa.reg_ra)
       | Isa.Jump_reg { rs } ->
         taken := true;
         next_ix := Isa.index_of_pc (read_reg st rs)
       | Isa.Halt -> assert false);
      (match Isa.dest instr with
       | Some rd -> s.s_last_writer.(rd) <- seq
       | None -> ());
      st.pc_ix <- !next_ix;
      s.s_count <- s.s_count + 1;
      Some
        {
          Trace.seq;
          static_ix = ix;
          pc;
          instr;
          reg_deps;
          mem_addr = !mem_addr;
          mem_dep = !mem_dep;
          taken = !taken;
          next_pc = Isa.pc_of_index !next_ix;
        }
  end

let stepped s = s.s_count

let halted s = s.s_halted

let reg s r = read_reg s.s_st r

(** [run ?config program] executes [program] and returns its trace. *)
let run ?(config = default_config) (p : Program.t) : Trace.t =
  let s = stepper ~config p in
  let out = ref [] in
  let rec loop () =
    match step s with
    | Some d ->
      out := d :: !out;
      loop ()
    | None -> ()
  in
  loop ();
  { Trace.program = p; instrs = Array.of_list (List.rev !out); halted = s.s_halted }
