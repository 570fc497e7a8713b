(* Quick end-to-end smoke check: run every workload through the interpreter,
   event annotation, baseline simulation and graph construction; print the
   headline statistics. *)

module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Workload = Icost_workloads.Workload
module Source = Icost_stream.Source

let () =
  let cfg = Config.default in
  let warmup = 200_000 and measure = 30_000 in
  Printf.printf "%-9s %8s %8s %6s %7s %7s %7s %8s %8s\n" "bench" "cycles" "ipc"
    "br-mr%" "dl1m%" "dl2m%" "il1m%" "graphCP" "err%";
  List.iter
    (fun (w : Workload.t) ->
      let program = w.build () in
      let t0 = Unix.gettimeofday () in
      let trace, evts, _ = Source.window cfg program ~warmup ~max_insns:measure in
      let result = Ooo.run cfg trace evts in
      let g = Build.of_sim cfg trace evts result in
      let cp = Graph.critical_length g in
      let n = float_of_int (Trace.length trace) in
      let loads = Trace.num_loads trace in
      let brs = Trace.num_branches trace in
      let misp = Array.fold_left (fun a (e : Events.evt) -> if e.mispredict then a + 1 else a) 0 evts in
      let dl1m = Array.fold_left (fun a (e : Events.evt) -> if e.dl1_miss then a + 1 else a) 0 evts in
      let dl2m = Array.fold_left (fun a (e : Events.evt) -> if e.dl2_miss then a + 1 else a) 0 evts in
      let il1m = Array.fold_left (fun a (e : Events.evt) -> if e.il1_miss then a + 1 else a) 0 evts in
      let t1 = Unix.gettimeofday () in
      Printf.printf "%-9s %8d %8.2f %6.1f %7.1f %7.1f %7.1f %8d %8.1f  (%.2fs)\n" w.name
        result.cycles (Ooo.ipc result)
        (100. *. float_of_int misp /. float_of_int (max 1 brs))
        (100. *. float_of_int dl1m /. float_of_int (max 1 loads))
        (100. *. float_of_int dl2m /. float_of_int (max 1 loads))
        (100. *. float_of_int il1m /. n)
        cp
        (100. *. float_of_int (abs (cp - result.cycles)) /. float_of_int result.cycles)
        (t1 -. t0))
    Workload.all
