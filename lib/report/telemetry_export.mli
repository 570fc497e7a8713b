(** Exporters for the {!Icost_util.Telemetry} sink.

    Three renderings of one measured run:

    - {b Chrome trace-event JSON} ({!trace_json}/{!write_trace}): the
      completed spans as ["X"] (complete) events — open in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  [ts]
      and [dur] are microseconds; [ts] is relative to the earliest span;
      [tid] is the OCaml domain id, so domain-pool utilization is the
      per-row occupancy of the timeline.
    - {b flat metrics JSON} ({!metrics_json}/{!write_metrics}): every
      counter and gauge plus span totals, for CI artifact diffing.
    - {b a human span tree} ({!span_tree}): spans aggregated by call
      path with counts and total durations.

    Every JSON artifact embeds a {!manifest} — config digest, workload
    list, sampling seed, job count, git revision, host cores and CPU
    model — so artifacts from different machines and CI runs are
    comparable (same manifest modulo [git] ⇒ same measured configuration
    on the same kind of host). *)

type manifest = {
  tool : string;
  version : string;
  git : string;  (** [git describe --always --dirty], or ["unknown"] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  config_digest : string;  (** {!digest} of the machine configuration *)
  workloads : string list;
  seed : int;  (** profiler sampling seed *)
  jobs : int;  (** {!Icost_util.Pool.jobs} at export time *)
  icost_jobs_env : string option;  (** raw [ICOST_JOBS], if set *)
  service : (float * int) option;
      (** server (uptime seconds, requests served), for artifacts written
          by a shutting-down [icost serve]; absent for one-shot runs *)
  faults : string;
      (** normalized {!Icost_util.Fault} spec active at export time, or
          ["none"] — a chaos run is distinguishable from a clean one by
          its artifacts alone *)
  retries : int;
      (** client re-sends recorded by the [service.retries] counter *)
  respawns : int;
      (** dead shards respawned by the supervisor ([service.respawns]);
          0 outside a sharded router process *)
  failovers : int;
      (** in-flight requests re-delivered after a shard death or drain
          ([service.failovers]); 0 outside a sharded router process *)
  cores : int;
      (** [Domain.recommended_domain_count] of the host: read with [jobs],
          it says whether a parallel row ran on as many cores as it asked
          for *)
  cpu_model : string;
      (** first ["model name"] of [/proc/cpuinfo], or ["unknown"] *)
}

val digest : 'a -> string
(** MD5 hex digest of the marshalled value; deterministic for a given
    configuration value and compiler version.  Use on
    [Icost_uarch.Config.t] (an immutable record) to stamp the machine
    configuration into the manifest. *)

val manifest :
  ?version:string ->
  ?config_digest:string ->
  ?seed:int ->
  ?service:float * int ->
  workloads:string list ->
  unit ->
  manifest
(** Assemble a manifest for the current process ([git], [ocaml], [jobs],
    [icost_jobs_env], [faults], [retries], [cores] and [cpu_model] are
    captured here). *)

val manifest_json : manifest -> string
(** The manifest alone as a JSON object (embedded verbatim in both
    artifact kinds). *)

val trace_json : manifest -> string
(** Chrome trace-event JSON of all completed spans recorded so far. *)

val metrics_json : manifest -> string
(** Flat metrics JSON: manifest + all counters and gauges + span totals. *)

val write_trace : file:string -> manifest -> unit
val write_metrics : file:string -> manifest -> unit

val span_tree : unit -> string
(** Aggregated span tree: one line per distinct call path with call count
    and summed duration, children indented under parents and sorted by
    total time.  Empty string when no spans were recorded. *)
