(** A reusable fixed-size domain pool for the embarrassingly parallel
    fan-outs of icost analysis (per-workload preparation, per-subset
    oracle queries, subset sweeps over one graph).

    The pool is a process-global set of worker domains created lazily on
    first use.  Results are deterministic: {!parallel_map} returns exactly
    [Array.map f a] regardless of the number of jobs or scheduling, and if
    several elements raise, the exception of the {e smallest} index is
    re-raised — so a parallel run fails the same way a sequential one
    would.

    Sizing: [ICOST_JOBS] in the environment wins; otherwise
    [Domain.recommended_domain_count () - 1], clamped to at least 1.  With
    one job every combinator degenerates to its sequential stdlib
    counterpart (no domains are ever spawned).

    Nested calls are safe: a task that itself calls into the pool runs its
    inner fan-out sequentially (workers never block waiting on other
    workers, so the pool cannot deadlock). *)

val jobs : unit -> int
(** Number of concurrent jobs the pool will use (>= 1). *)

val set_jobs : int -> unit
(** Override the job count (clamped to >= 1), shutting down any existing
    workers.  Intended for tests and for CLI [-j] style flags; normal
    configuration goes through [ICOST_JOBS]. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f a] is [Array.map f a], evaluated by the pool.  [f]
    must be safe to call from several domains at once (all analysis
    closures in this repository are: they share only immutable traces,
    graphs and configurations, or mutex-guarded memo tables). *)

val parallel_mapi : (int -> 'a -> 'b) -> 'a array -> 'b array
(** Indexed variant of {!parallel_map}. *)

val parallel_iter : ('a -> unit) -> 'a array -> unit
(** [parallel_iter f a] runs [f] on every element; completion order is
    unspecified but the call returns only when all are done. *)

val parallel_map_list : ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over lists (order preserved). *)

val parallel_chunks : int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_chunks n body] partitions [0, n) into one contiguous
    [\[lo, hi)] range per job and runs [body] on each range.  Used when
    per-task scratch state (e.g. a reusable evaluation buffer) should be
    allocated once per job rather than once per element. *)

(** {2 One-task futures}

    [async]/[await] overlap one task with the caller's own work, e.g. the
    stream pipeline building the next segment's fragment while the
    current one is priced.  Contract:

    - [async f] queues [f] for a pool worker and returns at once.  When
      {!jobs} is 1 or the caller is itself a pool worker, nothing is
      queued (no domain is ever spawned) and [f] runs at [await].
    - [await pr] returns [f]'s result, or re-raises its exception with
      its backtrace.  If no worker has started [f] yet, [await] claims it,
      takes it off the queue and runs it inline, so awaiting can never
      deadlock, even while every worker is busy.  Otherwise it blocks
      until the worker finishes.
    - [f] runs exactly once, on one domain.  It must not touch state the
      caller mutates until [await] returns.
    - Await each promise once; a second [await] returns the same outcome. *)

type 'a promise

val async : (unit -> 'a) -> 'a promise
val await : 'a promise -> 'a

val workers : unit -> int
(** Worker domains currently running: 0 before the first parallel call
    and always at one job. *)

val queued : unit -> int
(** Entries waiting in the worker queue (0 when no pool is running). *)

val shutdown : unit -> unit
(** Join all worker domains (idempotent; also registered [at_exit]).  The
    pool restarts transparently on the next parallel call. *)
