(** Streaming item sources: a pull interface over the committed dynamic
    stream, pairing each instruction with its event annotation.

    [of_program] chains the interpreter stepper and the event annotator so
    an unbounded run is produced one instruction at a time — no
    {!Icost_isa.Trace.t} is ever materialized.  The warm-up prefix is
    interpreted and classified (warming caches, TLBs and the branch
    predictor) but not yielded, and the measured window is renumbered from
    0 with dangling producer references dropped — exactly the semantics of
    [Trace.slice]/[Events.slice], so downstream consumers see the same
    stream the monolithic pipeline would.  [window] runs the same front
    end and collects the measured window into arrays: cold preparation
    ([Runner.prepare]) and the streaming engine share one warm-up path. *)

module Trace = Icost_isa.Trace
module Interp = Icost_isa.Interp
module Program = Icost_isa.Program
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events

type t = unit -> (Trace.dyn * Events.evt) option

let of_arrays (instrs : Trace.dyn array) (evts : Events.evt array) : t =
  let n = min (Array.length instrs) (Array.length evts) in
  let i = ref 0 in
  fun () ->
    if !i >= n then None
    else begin
      let k = !i in
      incr i;
      Some (instrs.(k), evts.(k))
    end

(* Renumbering matching [Trace.slice]: measured seq from 0, producer
   references into the warm-up prefix dropped (their effects are warmed
   state, not modeled dependences). *)
let renumber_dyn ~start (d : Trace.dyn) : Trace.dyn =
  let remap j = if j >= start then Some (j - start) else None in
  {
    d with
    seq = d.seq - start;
    reg_deps =
      List.filter_map (fun (r, p) -> Option.map (fun p -> (r, p)) (remap p)) d.reg_deps;
    mem_dep = Option.bind d.mem_dep remap;
  }

let renumber_evt ~start (e : Events.evt) : Events.evt =
  let remap j = if j >= start then Some (j - start) else None in
  { e with share_src = Option.bind e.share_src remap }

(* The one front end of both paths: a stepper budgeted for
   [warmup + max_insns] instructions and an annotator; the first [warmup]
   instructions are interpreted and classified (warming caches, TLBs and
   the branch predictor) and dropped, and the returned source pulls the
   rest, renumbered as [Trace.slice]/[Events.slice] do. *)
let start ?prefetch (cfg : Config.t) (p : Program.t) ~warmup ~max_insns :
    Interp.stepper * t =
  let warmup = max 0 warmup in
  let icfg = { Interp.default_config with max_instrs = warmup + max_insns } in
  let stepper = Interp.stepper ~config:icfg p in
  let ann = Events.annotator ?prefetch cfg in
  let rec burn k =
    if k > 0 then
      match Interp.step stepper with
      | Some d ->
        ignore (Events.annotate_next ann d);
        burn (k - 1)
      | None -> ()
  in
  burn warmup;
  ( stepper,
    fun () ->
      match Interp.step stepper with
      | None -> None
      | Some d ->
        let e = Events.annotate_next ann d in
        Some (renumber_dyn ~start:warmup d, renumber_evt ~start:warmup e) )

let of_program ?prefetch (cfg : Config.t) (p : Program.t) ~warmup ~max_insns : t =
  snd (start ?prefetch cfg p ~warmup ~max_insns)

(* Drain [next] into arrays sized for the whole budget up front (capped, then
   doubled), so a window that runs to its budget is filled in place and
   only one that halts early is trimmed by a copy. *)
let drain ~max_insns (next : t) : Trace.dyn array * Events.evt array =
  match next () with
  | None -> ([||], [||])
  | Some (d0, e0) ->
    let cap = min max_insns 65536 in
    let instrs = ref (Array.make cap d0) and evts = ref (Array.make cap e0) in
    let n = ref 1 in
    let rec fill () =
      match next () with
      | None -> ()
      | Some (d, e) ->
        if !n = Array.length !instrs then begin
          let grow a x =
            let b = Array.make (min max_insns (2 * !n)) x in
            Array.blit a 0 b 0 !n;
            b
          in
          instrs := grow !instrs d;
          evts := grow !evts e
        end;
        !instrs.(!n) <- d;
        !evts.(!n) <- e;
        incr n;
        fill ()
    in
    fill ();
    let trim a = if Array.length a = !n then a else Array.sub a 0 !n in
    (trim !instrs, trim !evts)

let window ?prefetch (cfg : Config.t) (p : Program.t) ~warmup ~max_insns =
  let stepper, next = start ?prefetch cfg p ~warmup ~max_insns in
  let instrs, evts = drain ~max_insns next in
  ( { Trace.program = p; instrs; halted = Interp.halted stepper },
    evts,
    Interp.stepped stepper )
