(* Spans recorded from the benchmark's side of each layer boundary.

   A span has a name, a request id shared by every span of one analysis
   or request, a parent, a start and a duration.  A boundary crossed
   hundreds of thousands of times (a source pull, an oracle call) is
   recorded as one folded span per parent: its summed duration and how
   many crossings it stands for.  Spans stay in memory and are written
   once, as Chrome trace-event JSON, when the run ends.

   A layer's self time is its duration minus the time its children
   cover.  Spans opened with [~layer:false] are containers (a pass, an
   analysis, a connection): their self time is time spent in no layer,
   reported as the unattributed share. *)

type span = {
  name : string;
  req : int;
  id : int;
  parent : int;  (** -1 for a root *)
  t0 : float;
  dur : float;
  count : int;  (** crossings a folded span stands for; 1 otherwise *)
  layer : bool;
}

type t = {
  on : bool;
  lock : Mutex.t;
  mutable spans : span list;
  mutable next_id : int;
  mutable next_req : int;
  mutable stack : (int * int) list;  (** (id, req) of the open spans *)
}

let create on =
  { on; lock = Mutex.create (); spans = []; next_id = 0; next_req = 0;
    stack = [] }

let enabled t = t.on

let fresh_id t =
  Mutex.protect t.lock (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id)

let new_req t =
  Mutex.protect t.lock (fun () ->
      let r = t.next_req in
      t.next_req <- r + 1;
      r)

let add t s = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

(* Record a finished span with an explicit parent (thread-safe).  A
   container whose children finish first takes an id from [reserve]. *)
let reserve = fresh_id

let record t ?(layer = true) ?id ~name ~req ~parent ~t0 ~t1 () =
  let id = match id with Some id -> id | None -> fresh_id t in
  if t.on then
    add t { name; req; id; parent; t0; dur = t1 -. t0; count = 1; layer }

(* [span t name f]: time [f] as a child of the innermost open span.
   Single-threaded use only (the nesting stack is shared). *)
let span t ?(layer = true) name f =
  if not t.on then f ()
  else begin
    let parent, req =
      match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, new_req t)
    in
    let id = fresh_id t in
    t.stack <- (id, req) :: t.stack;
    let t0 = Bench_util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Bench_util.now () in
        t.stack <- List.tl t.stack;
        add t { name; req; id; parent; t0; dur = t1 -. t0; count = 1; layer })
      f
  end

(* A folded child of the innermost open span. *)
let fold t name ~dur ~count =
  if t.on then
    match t.stack with
    | (parent, req) :: _ ->
      let id = fresh_id t in
      add t
        { name; req; id; parent; t0 = Bench_util.now () -. dur; dur; count;
          layer = true }
    | [] -> invalid_arg "Tracer.fold: no open span"

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let child_dur = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_dur s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt child_dur s.parent)))
    t.spans;
  List.map
    (fun s ->
      (s, s.dur -. Option.value ~default:0. (Hashtbl.find_opt child_dur s.id)))
    t.spans

(* Self seconds summed per span name, sorted by name. *)
let self_by_name t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* (seconds in no layer, seconds covered by root spans). *)
let unattributed t =
  let self =
    List.fold_left
      (fun acc (s, self) -> if s.layer then acc else acc +. self)
      0. (self_times t)
  in
  let roots =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. s.dur else acc)
      0. t.spans
  in
  (self, roots)

let write t path =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let pid = Unix.getpid () in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"count\":%d,\"layer\":%b}}"
        s.name (s.t0 *. 1e6) (s.dur *. 1e6) pid s.req s.id s.parent s.count
        s.layer)
    (List.rev t.spans);
  Buffer.add_string b "]}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)
