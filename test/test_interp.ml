(* Tests for the architectural interpreter: semantics, dependence
   annotation, trace slicing. *)

module Asm = Icost_isa.Asm
module Isa = Icost_isa.Isa
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace

let run ?(max_instrs = 1000) build =
  let a = Asm.create ~name:"t" () in
  build a;
  Interp.run ~config:{ Interp.default_config with max_instrs } (Asm.assemble a)

let test_arith () =
  (* computes (5+3)*2 - 1 = 15 and stores it *)
  let t =
    run (fun a ->
        Asm.li a ~rd:1 5;
        Asm.addi a ~rd:1 ~rs1:1 3;
        Asm.li a ~rd:2 2;
        Asm.mul a ~rd:3 ~rs1:1 ~rs2:2;
        Asm.addi a ~rd:3 ~rs1:3 (-1);
        Asm.li a ~rd:4 0x800;
        Asm.store a ~rs:3 ~base:4 ~offset:0;
        Asm.load a ~rd:5 ~base:4 ~offset:0;
        Asm.halt a)
  in
  Alcotest.(check bool) "halted" true t.halted;
  Alcotest.(check int) "8 instructions (halt not recorded)" 8 (Trace.length t);
  (* the final load reads back the stored 15 through memory *)
  let last_load = Trace.get t 7 in
  Alcotest.(check (option int)) "load address" (Some 0x800) last_load.mem_addr;
  Alcotest.(check (option int)) "store-to-load dependence" (Some 6) last_load.mem_dep

let test_branching () =
  (* loop three times *)
  let t =
    run (fun a ->
        Asm.li a ~rd:1 3;
        Asm.label a "top";
        Asm.addi a ~rd:1 ~rs1:1 (-1);
        Asm.bne a ~rs1:1 ~rs2:0 "top";
        Asm.halt a)
  in
  Alcotest.(check int) "1 + 3*2 instructions" 7 (Trace.length t);
  let branch_outcomes =
    Array.to_list t.instrs
    |> List.filter_map (fun (d : Trace.dyn) ->
           if Isa.is_cond_branch d.instr then Some d.taken else None)
  in
  Alcotest.(check (list bool)) "taken, taken, not-taken" [ true; true; false ]
    branch_outcomes

let test_call_ret () =
  let t =
    run (fun a ->
        Asm.jmp a "main";
        Asm.label a "sub";
        Asm.addi a ~rd:2 ~rs1:2 10;
        Asm.ret a;
        Asm.label a "main";
        Asm.call a "sub";
        Asm.call a "sub";
        Asm.halt a)
  in
  Alcotest.(check bool) "halted" true t.halted;
  (* jmp, call, addi, ret, call, addi, ret (halt not recorded) *)
  Alcotest.(check int) "7 dynamic instructions" 7 (Trace.length t);
  let ret = Trace.get t 3 in
  Alcotest.(check bool) "ret taken" true ret.taken;
  Alcotest.(check int) "ret returns past first call" (Isa.pc_of_index 4) ret.next_pc

let test_reg_deps () =
  let t =
    run (fun a ->
        Asm.li a ~rd:1 1;
        (* seq 0: writes r1 *)
        Asm.li a ~rd:2 2;
        (* seq 1: writes r2 *)
        Asm.add a ~rd:3 ~rs1:1 ~rs2:2;
        (* seq 2: reads r1(0), r2(1) *)
        Asm.add a ~rd:3 ~rs1:3 ~rs2:1;
        (* seq 3: reads r3(2), r1(0) *)
        Asm.halt a)
  in
  let deps i = List.sort compare (List.map snd (Trace.get t i).reg_deps) in
  Alcotest.(check (list int)) "seq2 deps" [ 0; 1 ] (deps 2);
  Alcotest.(check (list int)) "seq3 deps" [ 0; 2 ] (deps 3)

let test_budget_cut () =
  let t =
    run ~max_instrs:10 (fun a ->
        Asm.label a "spin";
        Asm.addi a ~rd:1 ~rs1:1 1;
        Asm.jmp a "spin")
  in
  Alcotest.(check int) "cut at budget" 10 (Trace.length t);
  Alcotest.(check bool) "not halted" false t.halted

let test_stuck_detection () =
  let a = Asm.create ~name:"stuck" () in
  Asm.addi a ~rd:1 ~rs1:1 1;
  (* no halt: PC falls off the end *)
  let p = Asm.assemble a in
  Alcotest.check_raises "falls off program"
    (Interp.Stuck "PC fell off the program at index 1") (fun () ->
      ignore (Interp.run ~config:{ Interp.default_config with max_instrs = 10 } p))

let test_div_by_zero_default () =
  let t =
    run (fun a ->
        Asm.li a ~rd:1 5;
        Asm.div a ~rd:2 ~rs1:1 ~rs2:0;
        Asm.halt a)
  in
  Alcotest.(check int) "runs through" 2 (Trace.length t)

let test_slice () =
  let t =
    run (fun a ->
        Asm.li a ~rd:1 100;
        (* seq 0 *)
        Asm.addi a ~rd:2 ~rs1:1 1;
        (* seq 1, dep on 0 *)
        Asm.addi a ~rd:3 ~rs1:2 1;
        (* seq 2, dep on 1 *)
        Asm.addi a ~rd:4 ~rs1:3 1;
        (* seq 3, dep on 2 *)
        Asm.halt a)
  in
  let s = Trace.slice t ~start:2 ~len:2 in
  Alcotest.(check int) "slice length" 2 (Trace.length s);
  let d0 = Trace.get s 0 in
  Alcotest.(check int) "renumbered" 0 d0.seq;
  Alcotest.(check (list (pair int int))) "dep before slice dropped" [] d0.reg_deps;
  let d1 = Trace.get s 1 in
  Alcotest.(check (list (pair int int))) "in-slice dep renumbered" [ (3, 0) ]
    d1.reg_deps

let test_mixes () =
  let t =
    run (fun a ->
        Asm.li a ~rd:1 0x900;
        Asm.load a ~rd:2 ~base:1 ~offset:0;
        Asm.store a ~rs:2 ~base:1 ~offset:8;
        Asm.fadd a ~rd:3 ~rs1:2 ~rs2:2;
        Asm.beq a ~rs1:0 ~rs2:0 "end";
        Asm.halt a;
        Asm.label a "end";
        Asm.halt a)
  in
  Alcotest.(check int) "loads" 1 (Trace.num_loads t);
  Alcotest.(check int) "stores" 1 (Trace.num_stores t);
  Alcotest.(check int) "branches" 1 (Trace.num_branches t)

(* Memory is paged by aligned word with an exact side table for
   misaligned addresses; every byte address must still behave as its own
   cell of a flat address -> word map.  The program stores to and loads
   from misaligned and negative addresses, both sides of page boundaries
   (8 KiB pages, and the page -1 / page 0 seam), far addresses, cells
   never written and image words (aligned and not) that are later
   overwritten.  After every operation all registers must equal a
   Hashtbl-model's, and every load's store-forwarding source must be the
   model's last store to that exact address. *)
type mem_op = St of int * int | Ld of int * Isa.reg

let test_memory_exact () =
  let image = [ (0x1FF8, 66); (0x2000, 77); (0x3005, 88); (-0x2000, 99) ] in
  let far = 1 lsl 40 in
  let ops =
    [ Ld (0x1FF8, 3); Ld (0x2000, 4); Ld (0x3005, 5); Ld (-0x2000, 6);
      St (0x2000, 5); Ld (0x2000, 7); Ld (0x1FF8, 8);
      St (0x2003, 9); Ld (0x2003, 9); Ld (0x2000, 10); Ld (0x2004, 11);
      St (0x2001, 11); Ld (0x2003, 12); Ld (0x2001, 13);
      St (0x3005, 12); Ld (0x3005, 14); St (-0x2000, 1); Ld (-0x2000, 15);
      St (-8, 13); St (-16, 14); Ld (-8, 16); Ld (-16, 17); Ld (-24, 18);
      St (-3, 15); Ld (-3, 19); Ld (-8, 20); St (0, 21); Ld (-8, 21);
      Ld (0, 22); St (0x1FFF, 23); Ld (0x1FFF, 23); Ld (0x1FF8, 24);
      St (far, 24); Ld (far, 25); Ld (far + 8, 26); St (-far - 5, 25);
      Ld (-far - 5, 27); Ld (0x123458, 28); Ld (0x123459, 29);
      St (0x2000, 26); Ld (0x2000, 30) ]
  in
  (* then re-read every address touched, its neighbours and the same slot
     one page either side, so two cells that wrongly share storage
     disagree at the end if not before *)
  let touched =
    List.sort_uniq compare
      (List.map (fun (St (addr, _) | Ld (addr, _)) -> addr) ops @ List.map fst image)
  in
  let ops =
    ops
    @ List.concat_map
        (fun addr ->
          List.map
            (fun d -> Ld (addr + d, 3 + ((addr + d) land 15)))
            [ -0x2000; -8; -1; 0; 1; 8; 0x2000 ])
        touched
  in
  let a = Asm.create ~name:"mem" () in
  List.iter (fun (addr, value) -> Asm.init_word a ~addr ~value) image;
  (* the address goes in r1 (with a nonzero offset half the time), the
     stored value in r2 *)
  let offset i = if i mod 2 = 0 then 0 else -12 in
  let emit i op =
    let off = offset i in
    match op with
    | St (addr, v) ->
      Asm.li a ~rd:1 (addr - off);
      Asm.li a ~rd:2 v;
      Asm.store a ~rs:2 ~base:1 ~offset:off
    | Ld (addr, rd) ->
      Asm.li a ~rd:1 (addr - off);
      Asm.load a ~rd ~base:1 ~offset:off
  in
  List.iteri emit ops;
  Asm.halt a;
  let st = Interp.stepper (Asm.assemble a) in
  let regs = Array.make Isa.num_regs 0 in
  let mem = Hashtbl.create 16 and last_store = Hashtbl.create 16 in
  List.iter (fun (addr, v) -> Hashtbl.replace mem addr v) image;
  let step_n n =
    let rec go k last =
      if k = 0 then last
      else match Interp.step st with
        | Some d -> go (k - 1) (Some d)
        | None -> Alcotest.fail "program ended early"
    in
    Option.get (go n None)
  in
  List.iteri
    (fun i op ->
      regs.(1) <- (match op with St (addr, _) | Ld (addr, _) -> addr - offset i);
      (match op with
       | St (addr, v) ->
         let d = step_n 3 in
         regs.(2) <- v;
         Hashtbl.replace mem addr v;
         Hashtbl.replace last_store addr d.Trace.seq;
         Alcotest.(check (option int)) "store address" (Some addr) d.mem_addr
       | Ld (addr, rd) ->
         let d = step_n 2 in
         regs.(rd) <- Option.value ~default:0 (Hashtbl.find_opt mem addr);
         Alcotest.(check (option int)) "load address" (Some addr) d.mem_addr;
         Alcotest.(check (option int))
           (Printf.sprintf "op %d: forwarding store" i)
           (Hashtbl.find_opt last_store addr) d.mem_dep);
      Array.iteri
        (fun r v ->
          Alcotest.(check int) (Printf.sprintf "op %d: r%d" i r) v (Interp.reg st r))
        regs)
    ops;
  Alcotest.(check bool) "then halts" true
    (Interp.step st = None && Interp.halted st)

let prop_workload_determinism =
  QCheck.Test.make ~name:"interpretation is deterministic" ~count:8
    (QCheck.make (QCheck.Gen.oneofl [ "gcc"; "mcf"; "gap"; "crafty" ]))
    (fun name ->
      let w = Icost_workloads.Workload.find_exn name in
      let cfg = { Interp.default_config with max_instrs = 2000 } in
      let t1 = Interp.run ~config:cfg (w.build ()) in
      let t2 = Interp.run ~config:cfg (w.build ()) in
      Trace.length t1 = Trace.length t2
      && Array.for_all2
           (fun (a : Trace.dyn) (b : Trace.dyn) ->
             a.pc = b.pc && a.mem_addr = b.mem_addr && a.taken = b.taken)
           t1.instrs t2.instrs)

let suite =
  ( "interp",
    [
      Alcotest.test_case "arithmetic and memory" `Quick test_arith;
      Alcotest.test_case "branching" `Quick test_branching;
      Alcotest.test_case "call/ret" `Quick test_call_ret;
      Alcotest.test_case "register dependences" `Quick test_reg_deps;
      Alcotest.test_case "budget cut" `Quick test_budget_cut;
      Alcotest.test_case "stuck detection" `Quick test_stuck_detection;
      Alcotest.test_case "div by zero yields 0" `Quick test_div_by_zero_default;
      Alcotest.test_case "trace slice" `Quick test_slice;
      Alcotest.test_case "class counting" `Quick test_mixes;
      Alcotest.test_case "memory cells exact" `Quick test_memory_exact;
      QCheck_alcotest.to_alcotest prop_workload_determinism;
    ] )
