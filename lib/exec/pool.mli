(** Domain pool with work stealing and deterministic, in-order reduction.

    A pool owns [jobs - 1] spawned domains plus the calling domain, which
    acts as worker 0.  Batches are split into contiguous chunks spread
    across per-worker deques; idle workers steal chunks from the tail of a
    victim's deque.  Results are committed strictly in submission order, so
    the observable output of every combinator is bit-identical to running
    the same tasks sequentially — regardless of how completion interleaves.

    [jobs = 1] is the literal sequential path: no domains, no atomics, the
    tasks run in a plain loop on the caller.

    Pools are not themselves domain-safe: a pool must be driven from one
    domain at a time (task bodies run on many domains, the orchestration
    runs on the caller). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ?jobs ()] spawns a pool.  Worker count resolution order:
    [jobs] argument, then the [ANORAD_JOBS] environment variable, then
    [Domain.recommended_domain_count ()].  The result is clamped to
    [1 .. 64]. *)

val sequential : unit -> t
(** [sequential ()] is [create ~jobs:1 ()]: the pool that never spawns. *)

val jobs : t -> int
(** Number of workers (including the calling domain). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Submitting work to a pool after
    [shutdown] is safe: the caller simply executes everything itself. *)

val is_alive : t -> bool
(** [true] until {!shutdown} (or the end of {!with_pool}); afterwards the
    pool degrades to the caller-executes sequential path.  Long-lived
    services that amortize one pool across their whole process lifetime
    (the one-pool-per-process pattern of docs/PARALLEL.md — [anorad
    serve] is the canonical caller) use this to assert the pool they are
    reusing still has its workers.  Idle pools stay alive indefinitely:
    workers block on a condition variable between batches and consume no
    CPU, so reuse after an arbitrarily long idle gap is identical to
    back-to-back reuse. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

val min_parallel_batch : int
(** Batches shorter than this ([16]) run sequentially on the caller when
    [chunk] is omitted.  Exposed so callers whose {e parallel set-up} has a
    per-batch cost of its own (e.g. task-local interner views) can skip it
    for batches the pool would serialise anyway. *)

val run_batch :
  t -> ?chunk:int -> f:(int -> 'a -> 'b) -> commit:(int -> 'b -> unit) -> 'a array -> unit
(** [run_batch pool ~f ~commit xs] evaluates [f i xs.(i)] for every index,
    possibly in parallel, and calls [commit i y] for each result strictly in
    index order ([commit] runs on the calling domain only).  Commits stream:
    a prefix of results is committed while later chunks are still running.

    If some [f i x] raises, the exact prefix of results before the first
    raising index (in index order) is committed, the batch is drained, and
    the exception is re-raised on the caller — matching what a sequential
    left-to-right loop would have committed.  Note that [f] may already
    have been applied (for its side effects) to indices beyond the raising
    one on other domains.

    [chunk] overrides the contiguous chunk length (default: batch split
    into roughly [4 * jobs] chunks).

    Batches shorter than 16 elements run sequentially on the caller when
    [chunk] is omitted — at microsecond task granularity the
    scatter/steal/barrier machinery costs more than the work
    (docs/PARALLEL.md).  Passing [chunk] explicitly always takes the
    parallel path. *)

val map_array : t -> ?chunk:int -> f:('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic ordering. *)

val map : t -> ?chunk:int -> f:('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic ordering. *)

val map_reduce :
  t -> ?chunk:int -> f:('a -> 'b) -> init:'acc -> merge:('acc -> 'b -> 'acc) -> 'a list -> 'acc
(** [map_reduce pool ~f ~init ~merge xs] folds [merge] over the images
    [f x] in submission order: the result equals
    [List.fold_left (fun acc x -> merge acc (f x)) init xs] bit for bit.
    [merge] runs on the calling domain only. *)

val iter_batches : t -> ?chunk:int -> f:('a -> unit) -> 'a list -> unit
(** [iter_batches pool ~f xs] runs [f] over [xs] in parallel.  Completion
    of the call is a barrier: every task has finished when it returns.
    [f] must be safe to run concurrently with itself. *)

(** {1 Telemetry} *)

type stats = {
  jobs : int;  (** worker count, including the caller *)
  tasks : int;  (** total elements executed since [create] *)
  steals : int;  (** chunks taken from another worker's deque *)
  busy : float array;  (** per-worker seconds spent inside tasks; index 0 = caller *)
  max_queue_depth : int;  (** high-water mark of any single deque, in chunks *)
}

val stats : t -> stats
(** Cumulative counters since [create].  Monotone: every field of a later
    snapshot is [>=] the same field of an earlier one. *)

val pp_stats : Format.formatter -> stats -> unit
