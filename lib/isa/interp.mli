(** Architectural interpreter: executes a program at the register/memory
    level (no timing) and records the committed dynamic instruction stream
    — the ground truth for the timing simulator and the profiler's
    reconstruction. *)

exception Stuck of string
(** The program counter left the program, or an enabled trap fired. *)

type config = {
  max_instrs : int;  (** stop after this many dynamic instructions *)
  trap_div_by_zero : bool;  (** if false, division by zero yields 0 *)
}

val default_config : config
(** 100k instructions, division by zero yields 0. *)

val run : ?config:config -> Program.t -> Trace.t
(** Execute the program from its entry point.  [Halt] ends the run early
    (and is not recorded in the trace).  @raise Stuck on invalid control
    flow. *)

(** {1 Streaming}

    A stateful stepper over the same interpreter loop, for callers that
    consume the dynamic stream one instruction at a time without
    materializing a {!Trace.t} ([run] is implemented on top of it, so the
    two are bit-identical). *)

type stepper

val stepper : ?config:config -> Program.t -> stepper
(** Fresh interpreter state positioned at the program entry. *)

val step : stepper -> Trace.dyn option
(** Execute and return the next committed instruction; [None] once the
    program halts or the [max_instrs] budget is exhausted.  @raise Stuck on
    invalid control flow. *)

val stepped : stepper -> int
(** Number of instructions committed so far. *)

val halted : stepper -> bool
(** True iff a [Halt] was executed. *)

val reg : stepper -> Isa.reg -> int
(** Current architectural value of a register (0 for [reg_zero]). *)
