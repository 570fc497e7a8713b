(* Shared helpers of the benchmark program: clocks, order statistics,
   /proc readings (memory, host steal), the key/value protocol the child
   processes answer with, output checks, and the digests that pin
   simulated results. *)

let now = Unix.gettimeofday

(* ---------- order statistics ---------- *)

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile of a handful of samples is still a smooth function of them. *)
let percentile xs q =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5
let median_l l = median (Array.of_list l)
let sum_l = List.fold_left ( +. ) 0.

(* ---------- host facts ---------- *)

let nproc () = Domain.recommended_domain_count ()

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let field_of_lines ~key text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.trim (String.sub line 0 i) = key ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let cpu_model () =
  Option.bind (read_file "/proc/cpuinfo") (field_of_lines ~key:"model name")
  |> Option.value ~default:"unknown"

(* Jiffies stolen from this VM by its host, and all jiffies, so far. *)
let host_steal () =
  match Option.bind (read_file "/proc/stat") (fun s -> List.nth_opt (String.split_on_char '\n' s) 0) with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      (Option.value ~default:0. (List.nth_opt v 7), List.fold_left ( +. ) 0. v)
    | _ -> (0., 0.))
  | None -> (0., 0.)

(* Run [f] and also return the share of the VM's CPU time that its host
   stole meanwhile. *)
let with_steal f =
  let s0, t0 = host_steal () in
  let r = f () in
  let s1, t1 = host_steal () in
  (r, if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.)

(* The members of [xs] during which the host stole at most 2 points of
   CPU time more than during the quietest one: timings are taken over
   these, so a burst of steal by the host's other tenants drops out. *)
let quiet steal_of xs =
  let least = List.fold_left (fun m x -> Float.min m (steal_of x)) infinity xs in
  List.filter (fun x -> steal_of x <= least +. 0.02) xs

(* Resident-set high-water mark of a live process, in MB (VmHWM). *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match Option.bind (read_file path) (field_of_lines ~key:"VmHWM") with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some kb -> kb /. 1024. | None -> nan)
    | [] -> nan)
  | None -> nan

let children_of pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | Some s ->
    String.split_on_char ' ' (String.trim s) |> List.filter_map int_of_string_opt
  | None -> []

(* ---------- digests of simulated results ---------- *)

let digest_ints a =
  Array.to_list a |> List.map string_of_int |> String.concat ","
  |> Digest.string |> Digest.to_hex

(* ---------- child processes ---------- *)

(* A child answers with one "key<TAB>value" line per fact on stdout. *)
let emit k v = Printf.printf "%s\t%s\n" k v
let emit_f k v = emit k (Printf.sprintf "%.17g" v)
let emit_i k v = emit k (string_of_int v)

type kv = (string * string) list

let kv_str (kv : kv) k =
  match List.assoc_opt k kv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "child result lacks %S" k)

let kv_f kv k = float_of_string (kv_str kv k)
let kv_i kv k = int_of_string (kv_str kv k)
let kv_floats kv k =
  match kv_str kv k with
  | "" -> [||]
  | s -> String.split_on_char ',' s |> List.map float_of_string |> Array.of_list

let parse_kv text : kv =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
           Some
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

(* Run this executable again with [args] and wait for it.  The child is
   told the wall clock at which it was spawned ([--spawned-at]) so it can
   time its set-up from that instant.  Returns what it printed, or
   [Error] when it failed. *)
let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned_at = now () in
  let argv =
    Array.of_list ((exe :: args) @ [ "--spawned-at"; Printf.sprintf "%.6f" spawned_at ])
  in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok (parse_kv out)
  | _, (Unix.WEXITED c) -> Error (Printf.sprintf "%s exited %d" (String.concat " " args) c)
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Error (Printf.sprintf "%s killed by signal %d" (String.concat " " args) s)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------- output checks ---------- *)

(* Simulated statistics recorded in expected.json (flat "key": "value"
   pairs).  Every check bumps [checks]; a disagreement is remembered so
   the run reports it and counts the output as failed. *)
let expected : (string, string) Hashtbl.t = Hashtbl.create 64
let checks = ref 0
let problems : string list ref = ref []

let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

let check cond fmt =
  incr checks;
  Printf.ksprintf
    (fun m ->
      if not cond then problems := m :: !problems;
      cond)
    fmt

let check_exact key value =
  incr checks;
  match Hashtbl.find_opt expected key with
  | Some v when String.equal v value -> true
  | Some v ->
    problem "%s: expected %s, got %s" key v value;
    false
  | None ->
    problem "%s: no recorded value (got %s)" key value;
    false

(* Rows for the run's report (not metrics of BENCHMARK.json): each traced
   span name's summed self time, and each counter cross-check as
   "inside outside agree". *)
let self_rows (kv : kv) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"self." k then
        Hashtbl.replace tbl k
          (float_of_string v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
    kv;
  Hashtbl.fold (fun k v acc -> (k ^ "_ms", v *. 1e3) :: acc) tbl []
  |> List.sort compare

(* Counter cross-check.  A child prints each of the program's own
   telemetry counters next to the benchmark's count from outside; the
   parent collects them as (label, "inside outside agree"). *)
let emit_counter name ~outside ok =
  let inside = Icost_util.Telemetry.value (Icost_util.Telemetry.counter name) in
  emit ("counter." ^ name) (Printf.sprintf "%d %d %b" inside outside (ok inside outside))

let counter_facts label (kv : kv) =
  List.filter_map
    (fun (k, v) ->
      if String.starts_with ~prefix:"counter." k then Some (label ^ " " ^ k, v)
      else None)
    kv

let mismatches facts =
  List.length (List.filter (fun (_, v) -> String.ends_with ~suffix:"false" v) facts)

let counter_rows counters =
  List.map
    (fun (k, v) ->
      log "  %s: %s (inside outside agree)" k v;
      (k, match String.split_on_char ' ' v with inside :: _ -> float_of_string inside | [] -> nan))
    counters

(* What a workload run hands back to [Main]. *)
type outcome = {
  metrics : (string * float) list;
  attempted : int;  (** outputs produced *)
  failed : int;  (** outputs that failed or were wrong *)
  settings : (string * string) list;  (** recorded in the manifest *)
}
