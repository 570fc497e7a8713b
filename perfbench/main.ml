(* Benchmark program.

     main.exe run --workload W --seed N --seconds S --trace 0|1 [--rev R]

   runs one workload from the root of the source tree and prints, as its
   last line, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end_to_end ones named
   in BENCHMARK.json, with --trace 1 the per_layer ones.  The line
   before it is the run manifest.

   The stream-pass, batch-item and serve-daemon subcommands are the child
   processes the workloads spawn: one streamed analysis, one cold
   analysis, the service daemon. *)

open Bench_util
module Json = Icost_service.Json

let benchmark_file = "BENCHMARK.json"
let expected_file = "perfbench/expected.json"
let out_dir = "perfbench/out"

let workloads = [ "stream-long"; "cold-batch"; "serve-mix" ]

let usage () =
  prerr_endline
    "usage: main.exe run --workload (stream-long|cold-batch|serve-mix) --seed N \
     --seconds S --trace 0|1 [--rev R]";
  exit 2

(* --key value pairs plus bare --flags. *)
let parse_args args =
  let rec go acc = function
    | k :: v :: rest
      when String.starts_with ~prefix:"--" k
           && not (String.starts_with ~prefix:"--" v) ->
      go ((k, v) :: acc) rest
    | k :: rest when String.starts_with ~prefix:"--" k -> go ((k, "") :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let arg args k =
  match List.assoc_opt k args with Some v -> v | None -> usage ()

let int_arg args k =
  match int_of_string_opt (arg args k) with Some v -> v | None -> usage ()

(* (name, unit) of each metric in one section of BENCHMARK.json. *)
let metric_names section =
  let doc = Json.parse (Option.get (read_file benchmark_file)) in
  match Option.bind (Json.member section doc) Json.get_arr with
  | Some l ->
    List.map
      (fun m ->
        match
          ( Option.bind (Json.member "name" m) Json.get_str,
            Option.bind (Json.member "unit" m) Json.get_str )
        with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("malformed metric in " ^ benchmark_file))
      l
  | None -> failwith (benchmark_file ^ " lacks " ^ section)

let load_expected () =
  match Option.map Json.parse (read_file expected_file) with
  | Some (Json.Obj kvs) ->
    List.iter
      (fun (k, v) -> Option.iter (Hashtbl.replace expected k) (Json.get_str v))
      kvs
  | _ -> ()

let manifest ~workload ~seed ~seconds ~trace ~rev ~steal_pct (o : outcome) =
  Json.Obj
    [ ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("cores", Json.Int (nproc ()));
      ("cpu_model", Json.Str (cpu_model ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("revision", Json.Str rev);
      ("host_steal_pct", Json.Float steal_pct);
      ("settings", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) o.settings));
      ("checks_executed", Json.Int !checks) ]

let run args =
  let workload = arg args "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg args "--seed" in
  let seconds = float_of_int (int_arg args "--seconds") in
  let trace = int_arg args "--trace" = 1 in
  let rev = Option.value ~default:"unknown" (List.assoc_opt "--rev" args) in
  let wanted = metric_names (if trace then "per_layer" else "end_to_end") in
  load_expected ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let steal0, total0 = host_steal () in
  let o, exercised =
    match workload with
    | "stream-long" -> (Wl_stream.run ~seed ~seconds ~trace, Wl_stream.layers)
    | "cold-batch" -> (Wl_batch.run ~seed ~seconds ~trace, Wl_batch.layers)
    | _ -> (Wl_serve.run ~seed ~seconds ~trace, Wl_serve.layers)
  in
  let steal1, total1 = host_steal () in
  let steal_pct = 100. *. (steal1 -. steal0) /. Float.max 1. (total1 -. total0) in
  (* A per-layer metric of a layer this workload does not exercise reads
     0: its work did not run here.  One it does exercise must be there. *)
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name o.metrics with
          | Some v when Float.is_finite v -> v
          | Some _ ->
            problem "metric %s is not finite" name;
            0.
          | None when trace && not (List.mem name exercised) -> 0.
          | None ->
            problem "%s produced no %s" workload name;
            0.
        in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      wanted
  in
  if trace then
    List.iter
      (fun n ->
        if not (List.mem_assoc n wanted) then
          problem "%s lists %s, which is not a per_layer metric" workload n)
      exercised;
  let problems = List.rev !problems in
  List.iter (fun p -> log "PROBLEM: %s" p) problems;
  log "checks executed: %d; outputs attempted %d, failed %d (failed_frac %g)"
    !checks o.attempted o.failed
    (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  let m = manifest ~workload ~seed ~seconds ~trace ~rev ~steal_pct o in
  let all_metrics = Json.Obj (List.map (fun (k, v) -> (k, Json.Float (if Float.is_finite v then v else 0.))) o.metrics) in
  Out_channel.with_open_text
    (Printf.sprintf "%s/result-%s-seed%d-trace%d.json" out_dir workload seed
       (if trace then 1 else 0))
    (fun oc ->
      output_string oc
        (Json.encode
           (Json.Obj
              [ ("manifest", m); ("metrics", all_metrics);
                ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems)) ]));
      output_char oc '\n');
  print_endline (Json.encode (Json.Obj [ ("manifest", m) ]));
  print_endline
    (Json.encode
       (Json.Obj
          [ ("correct", Json.Bool (o.failed = 0 && problems = []));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics) ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_args rest)
  | _ :: "stream-pass" :: rest ->
    let a = parse_args rest in
    Wl_stream.pass ~bench:(arg a "--bench")
      ~spawned_at:(float_of_string (arg a "--spawned-at"))
      ~trace:(int_arg a "--trace" = 1) ~trace_file:(arg a "--trace-file")
  | _ :: "serve-daemon" :: rest -> Wl_serve.daemon ~sock:(arg (parse_args rest) "--socket")
  | _ :: "batch-item" :: rest ->
    let a = parse_args rest in
    Wl_batch.item_run ~item:(int_arg a "--item")
      ~trace:(int_arg a "--trace" = 1) ~trace_file:(arg a "--trace-file")
  | _ -> usage ()
