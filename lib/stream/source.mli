(** Streaming item sources: a pull interface over the committed dynamic
    stream, pairing each instruction with its event annotation. *)

module Trace = Icost_isa.Trace
module Program = Icost_isa.Program
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events

type t = unit -> (Trace.dyn * Events.evt) option
(** Yields the measured window in order, renumbered from 0; [None] at end
    of stream. *)

val of_arrays : Trace.dyn array -> Events.evt array -> t
(** Source over an already-sliced trace window and its annotations (the
    conformance-law path: feed exactly what the monolithic engines saw). *)

val of_program :
  ?prefetch:Events.prefetch ->
  Config.t ->
  Program.t ->
  warmup:int ->
  max_insns:int ->
  t
(** Interpret and annotate [p] one instruction at a time: the first
    [warmup] instructions warm caches/TLBs/predictor and are discarded,
    then up to [max_insns] measured instructions are yielded with
    [Trace.slice]/[Events.slice] renumbering semantics.  Peak memory is
    O(architectural state), independent of the instruction count. *)

val window :
  ?prefetch:Events.prefetch ->
  Config.t ->
  Program.t ->
  warmup:int ->
  max_insns:int ->
  Trace.t * Events.evt array * int
(** The same warm-up and renumbering as {!of_program}, with the measured
    window collected into arrays: equal to interpreting [warmup + max_insns]
    instructions, annotating them and taking
    [Trace.slice]/[Events.slice] of the part after [warmup] (clamped to what
    the program ran), but without materializing the warm-up.  The trace's
    [halted] is the interpreter's own flag.  The [int] is the number of
    instructions executed in all, warm-up included (what a caller reports
    when the window comes back empty). *)
