(** Telemetry exporters: Chrome trace-event JSON, flat metrics JSON and a
    human span tree.  See telemetry_export.mli.

    JSON is emitted by hand (the repository is dependency-free beyond the
    stdlib); the subset produced — objects, arrays, strings, ints, floats,
    null — round-trips through any JSON parser, and the test suite checks
    exactly that with a minimal parser of its own. *)

module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool

type manifest = {
  tool : string;
  version : string;
  git : string;
  ocaml : string;
  config_digest : string;
  workloads : string list;
  seed : int;
  jobs : int;
  icost_jobs_env : string option;
  service : (float * int) option;
  faults : string;  (* active Fault spec, or "none" *)
  retries : int;  (* client re-sends this run (service.retries) *)
  respawns : int;  (* supervisor shard respawns (service.respawns) *)
  failovers : int;  (* re-delivered in-flight requests (service.failovers) *)
  cores : int;  (* Domain.recommended_domain_count *)
  cpu_model : string;  (* first "model name" in /proc/cpuinfo, or "unknown" *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

(* The first non-empty "model name" of /proc/cpuinfo, or "unknown". *)
let cpu_model () =
  let model line =
    match String.split_on_char ':' line with
    | key :: rest when String.trim key = "model name" ->
      String.trim (String.concat ":" rest)
    | _ -> ""
  in
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some line -> ( match model line with "" -> scan () | m -> m)
        in
        scan ())
  with Sys_error _ -> "unknown"

let manifest ?(version = "1.0.0") ?(config_digest = "") ?(seed = 0) ?service
    ~workloads () =
  {
    tool = "icost";
    version;
    git = git_describe ();
    ocaml = Sys.ocaml_version;
    config_digest;
    workloads;
    seed;
    jobs = Pool.jobs ();
    icost_jobs_env = Sys.getenv_opt "ICOST_JOBS";
    service;
    faults =
      (match Icost_util.Fault.active_spec () with
       | Some spec -> spec
       | None -> "none");
    retries = Telemetry.value (Telemetry.counter "service.retries");
    respawns = Telemetry.value (Telemetry.counter "service.respawns");
    failovers = Telemetry.value (Telemetry.counter "service.failovers");
    cores = Domain.recommended_domain_count ();
    cpu_model = cpu_model ();
  }

(* ---------- JSON emission ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (escape s)

let jfloat f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let jlist items = "[" ^ String.concat "," items ^ "]"

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let manifest_json (m : manifest) =
  jobj
    ([
       ("tool", jstr m.tool);
       ("version", jstr m.version);
       ("git", jstr m.git);
       ("ocaml", jstr m.ocaml);
       ("config", jstr m.config_digest);
       ("workloads", jlist (List.map jstr m.workloads));
       ("seed", string_of_int m.seed);
       ("jobs", string_of_int m.jobs);
       ( "icost_jobs",
         match m.icost_jobs_env with None -> "null" | Some s -> jstr s );
       ("faults", jstr m.faults);
       ("retries", string_of_int m.retries);
       ("respawns", string_of_int m.respawns);
       ("failovers", string_of_int m.failovers);
       ("cores", string_of_int m.cores);
       ("cpu_model", jstr m.cpu_model);
     ]
    @
    match m.service with
    | None -> []
    | Some (uptime_s, requests) ->
      [
        ( "service",
          jobj
            [
              ("uptime_s", jfloat uptime_s);
              ("requests", string_of_int requests);
            ] );
      ])

let span_args (attrs : (string * string) list) =
  jobj (List.map (fun (k, v) -> (k, jstr v)) attrs)

let trace_json (m : manifest) =
  let spans = Telemetry.spans () in
  let t0 =
    List.fold_left (fun acc (s : Telemetry.span_record) -> Float.min acc s.start)
      infinity spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let event (s : Telemetry.span_record) =
    jobj
      ([
         ("name", jstr s.name);
         ("cat", jstr "icost");
         ("ph", jstr "X");
         ("ts", jfloat ((s.start -. t0) *. 1e6));
         ("dur", jfloat (s.dur *. 1e6));
         ("pid", "1");
         ("tid", string_of_int s.tid);
       ]
      @ if s.attrs = [] then [] else [ ("args", span_args s.attrs) ])
  in
  jobj
    [
      ("displayTimeUnit", jstr "ms");
      ("otherData", manifest_json m);
      ("traceEvents", jlist (List.map event spans));
    ]

let metrics_json (m : manifest) =
  let spans = Telemetry.spans () in
  let root_wall =
    List.fold_left
      (fun acc (s : Telemetry.span_record) ->
        if s.parent = 0 then acc +. s.dur else acc)
      0. spans
  in
  jobj
    [
      ("schema", jstr "icost.metrics.v1");
      ("manifest", manifest_json m);
      ( "counters",
        jobj
          (List.map
             (fun (k, v) -> (k, string_of_int v))
             (Telemetry.counters ())) );
      ( "gauges",
        jobj (List.map (fun (k, v) -> (k, jfloat v)) (Telemetry.gauges ())) );
      ( "spans",
        jobj
          [
            ("count", string_of_int (List.length spans));
            ("root_wall_s", jfloat root_wall);
          ] );
    ]

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let write_trace ~file m = write_file file (trace_json m)

let write_metrics ~file m = write_file file (metrics_json m)

(* ---------- span tree ---------- *)

(* Aggregation trie: spans keyed by their call path (chain of names up to
   the root), accumulating call count and total duration per path. *)
type tnode = {
  mutable count : int;
  mutable total : float;
  children : (string, tnode) Hashtbl.t;
}

let new_tnode () = { count = 0; total = 0.; children = Hashtbl.create 4 }

let span_tree () =
  let spans = Telemetry.spans () in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (s : Telemetry.span_record) -> Hashtbl.replace by_id s.id s)
    spans;
  let rec path (s : Telemetry.span_record) =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> path p @ [ s.name ]
    | None -> [ s.name ]
  in
  let root = new_tnode () in
  List.iter
    (fun (s : Telemetry.span_record) ->
      let rec insert node = function
        | [] ->
          node.count <- node.count + 1;
          node.total <- node.total +. s.dur
        | name :: rest ->
          let child =
            match Hashtbl.find_opt node.children name with
            | Some c -> c
            | None ->
              let c = new_tnode () in
              Hashtbl.add node.children name c;
              c
          in
          insert child rest
      in
      insert root (path s))
    spans;
  let buf = Buffer.create 1024 in
  let rec print depth node =
    let kids =
      Hashtbl.fold (fun name c acc -> (name, c) :: acc) node.children []
      |> List.sort (fun (_, a) (_, b) -> compare b.total a.total)
    in
    List.iter
      (fun (name, c) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %6dx %10.3f ms\n" (String.make (2 * depth) ' ')
             (max 1 (36 - (2 * depth)))
             name c.count (c.total *. 1e3));
        print (depth + 1) c)
      kids
  in
  print 0 root;
  Buffer.contents buf
