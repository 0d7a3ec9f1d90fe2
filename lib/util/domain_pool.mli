(** A small fixed-size pool of worker domains for data-parallel loops.

    OCaml 5 domains are heavyweight (each carries a minor heap and a
    runtime participant slot), so the engine spawns them {e once} and
    reuses them across calls instead of forking per operation. A pool of
    parallelism [k] owns [k - 1] worker domains; the calling domain is
    always the [k]-th participant, so a pool of size 1 degenerates to a
    plain sequential loop with no synchronization at all.

    Workers block on a condition variable between jobs (no spinning), which
    keeps an idle pool free on over-subscribed machines. Jobs split an index
    range [0, n) into contiguous chunks handed out through an atomic
    counter, so uneven chunk costs self-balance. Exceptions raised inside a
    chunk are caught, the job is drained, and the first exception is
    re-raised in the caller.

    Jobs may be submitted from several orchestrating threads (e.g. the
    xsact-serve worker pool): a per-pool submit mutex serializes whole
    jobs, so exactly one is in flight at a time and concurrent callers
    queue. Nested [parallel_for] from inside a chunk is still
    unsupported (it would self-deadlock on the submit mutex). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns a pool of total parallelism [max 1 domains]
    ([domains - 1] worker domains). *)

val get : domains:int -> t
(** Memoized {!create}: returns the process-global pool of this size,
    spawning it on first use. This is what the engine calls on hot paths so
    repeated comparisons reuse the same domains. Safe to call from
    concurrent threads (the registry is mutex-guarded). *)

val domains : t -> int
(** Total parallelism, including the calling domain. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped at {!max_default_domains} —
    the library-wide default for every [?domains] argument. *)

val max_default_domains : int
(** Cap on {!default_domains} (8): beyond this the pair-partitioned
    workloads stop scaling before the synchronization cost does. Explicit
    [~domains] arguments may exceed it. *)

val parallel_for :
  ?deadline:Deadline.t -> t -> n:int -> chunk:(int -> int -> unit) -> unit
(** [parallel_for pool ~n ~chunk] runs [chunk lo hi] over contiguous
    sub-ranges covering [0, n) ([lo] inclusive, [hi] exclusive), in
    parallel across the pool. Chunks are disjoint, so [chunk] may write to
    per-index slots of a shared array without synchronization; any other
    shared mutation is the caller's responsibility. Re-raises the first
    chunk exception after the job drains. [n <= 0] is a no-op.

    [deadline] makes the job cancellable: it is polled before submission
    and before each chunk, and once it trips the remaining chunks are
    skipped, the job drains, and {!Deadline.Expired} is raised in the
    caller — the pool itself stays clean and immediately reusable. A
    partial result array must be treated as garbage (that is why this
    raises instead of returning). Carries the ["pool.submit"]
    {!Failpoint}. *)

val map_reduce :
  ?deadline:Deadline.t ->
  t -> n:int -> map:(int -> int -> 'a) -> reduce:('a -> 'a -> 'a) -> init:'a -> 'a
(** [map_reduce pool ~n ~map ~reduce ~init] folds [reduce] over the chunk
    results of [map lo hi], starting from [init]. The reduction is applied
    in ascending chunk order, so a non-commutative [reduce] still gets a
    deterministic result regardless of the pool size. *)

val shutdown : t -> unit
(** Join the pool's workers. Idempotent; the pool must be idle. Pools from
    {!get} normally live for the whole process — worker domains blocked on
    an idle pool do not prevent process exit. *)
