(** The xsact-serve daemon: resident indexed corpora behind a JSON API.

    {!create} eagerly loads and indexes the requested datasets; {!handle}
    maps one {!Http.request} to a response (pure dispatch — the unit tests
    exercise it without sockets); {!start} binds a loopback listener and
    serves with a fixed pool of worker threads.

    Threading model (see DESIGN.md §8): worker threads overlap on socket
    I/O and parsing, and comparisons run per-key single-flight — the
    first thread to miss on a cache key computes it with the cache mutex
    {e released}, duplicate requests for the same key wait on a condition
    variable and replay the cached body, and cache hits, other keys, and
    [/metrics] never block behind an in-flight comparison. Session state
    has one lock of its own: every session request, and [/metrics]'
    session gauges, run under it, so they wait for an in-flight session
    mutation; [/compare] never takes it. The daemon
    runs in one OCaml domain: a comparison runs sequentially on its
    worker thread, and threads interleave under the runtime lock, which
    blocking I/O releases. SIGPIPE is ignored at
    {!start} so a client that disconnects mid-response surfaces as EPIPE
    (absorbed per-connection), and every accepted socket carries an idle
    read timeout so stalled keep-alive connections release their worker.

    Endpoints: [GET /], [GET /health] (liveness), [GET /ready]
    (readiness: 503 until {!recover} completes), [GET /datasets],
    [GET /search?dataset=&q=], [POST /compare], [GET /metrics],
    [POST /session], [GET /session], [GET /session/:id],
    [POST /session/:id/add], [POST /session/:id/remove],
    [POST /session/:id/size], [POST /session/:id/apply],
    [PATCH /session/:id/params], [DELETE /session/:id]. The single-op
    mutation endpoints are thin wrappers over the [/apply] op path
    (DESIGN.md §13) — one validation routine, one error vocabulary —
    and every error body is a uniform
    [{"error": {"code", "message"}}] envelope with a stable
    machine-readable code.

    Durable sessions (DESIGN.md §10): with [state_dir], every session
    mutation is journaled (length-prefixed, CRC-checksummed,
    fsync-policied) before the response is written, snapshots compact the
    journal, and {!recover} replays snapshot + journal on boot — so a
    [kill -9] loses nothing acknowledged and a restart resumes where the
    crash left off. Without [state_dir], behavior and hot path are
    unchanged.

    Warm failover (DESIGN.md §14): a server created with [replica_of]
    is a live {e follower} — it tails the primary's journal over
    [GET /v1/replicate] (served here when this server is the primary),
    applies every record through the recovery replay path into warm
    state, serves reads (and [POST /compare]) while refusing mutations
    with [503 {"code":"follower"}] (hinting at the primary it currently
    follows), and becomes the primary on [POST /v1/promote] or — with
    [takeover_after] — when the primary stays silent that long. A
    journal entry carries the DFS q-vectors and run count its session
    serves, so a restart, a crash recovery, a follower and a promoted
    follower all serve every session exactly as it was acknowledged.

    Coordinated fencing (DESIGN.md §14): role and fencing epoch are one
    {!Cluster.t}, changed only through {!Cluster.step} with the epoch
    written to [<state-dir>/epoch] before the change is visible.
    Promotion mints the next epoch and chases every peer with
    [POST /v1/demote]; a primary observing a higher epoch becomes a
    fenced read-only follower of the winner (mutations answer
    [409 {"code":"fenced"}] with [epoch] and [winner]), durably. Followers
    that lose their primary re-point or elect a successor with
    {!Cluster.elect}. *)

type t

val create :
  ?datasets:string list -> ?cache_capacity:int -> ?incremental:bool ->
  ?max_context_bytes:int ->
  ?deadline_ms:int -> ?max_deadline_ms:int -> ?session_ttl_s:float ->
  ?max_sessions:int -> ?state_dir:string ->
  ?fsync:Xsact_persist.Journal.policy -> ?snapshot_every:int ->
  ?replica_of:string * int -> ?peers:(string * int) list ->
  ?takeover_after:float -> unit -> t
(** Load and index [datasets] (default: the whole {!Xsact_dataset.Dataset}
    registry). [cache_capacity] sizes the comparison LRU (default 128).

    Incremental-engine knobs (DESIGN.md §11, §13):
    - [incremental] (default [true]): maintain session contexts by delta,
      intern them across sessions, and serve [/compare] from the intern
      table. [false] restores full rebuilds and per-session private
      contexts everywhere — the ablation/baseline configuration; response
      bodies are byte-identical either way. The intern table retains at
      most 32 {e unpinned} entries for reuse — contexts no warm session
      currently pins, kept so [POST /compare] and re-created sessions
      over the same corpus skip the rebuild; pinned entries (held by at
      least one warm session) are not counted against that.
    - [max_context_bytes]: one budget for {e all} warm context bytes —
      interned session contexts (counted once however many sessions pin
      them) plus the unpinned reuse entries behind [POST /compare].
      Exceeding it demotes least-recently-used sessions to cold (their
      releases unpin entries, which the table then sheds LRU-first).
      Omit for unbounded.

    Overload/robustness knobs (DESIGN.md §9):
    - [deadline_ms]: default cooperative budget for each [/compare]
      computation; omit for no default. A request overrides it with an
      [X-Deadline-Ms] header, clamped to [max_deadline_ms] (default
      60000). A tripped budget yields the algorithm's valid best-so-far
      with an [X-Degraded: deadline] header — or a 504 when not even the
      pair-context build finished in time.
    - [session_ttl_s] / [max_sessions]: idle expiry and LRU capacity of
      the session store (both unbounded by default).

    Durability knobs (DESIGN.md §10):
    - [state_dir]: directory for the session journal + snapshot. Omitted
      (the default), persistence is fully disabled — no hooks fire and no
      file is ever opened.
    - [fsync]: journal fsync policy (default [Interval 0.1]).
    - [snapshot_every]: compact the journal into a snapshot after this
      many appends (default 256; [0] disables automatic compaction).

    Replication knobs (DESIGN.md §14):
    - [replica_of]: follow the primary at [(host, port)] — requires
      [state_dir] (the follower keeps its own always-recoverable copy).
    - [peers]: the other nodes of the cluster, for discovery, election
      and post-promotion fencing. A booting would-be primary with a
      non-empty list probes it first and joins a live higher-or-equal
      epoch primary as a follower instead of forking history.
    - [takeover_after]: run the takeover election after the primary has
      been unreachable this many seconds (the winner self-promotes);
      omitted, promotion is manual only ([POST /v1/promote]).

    @raise Invalid_argument on an unknown dataset name, a non-positive
    knob, or [replica_of] without [state_dir]. *)

val recover : t -> unit
(** Replay [state_dir]'s snapshot + journal, restore the recovered
    sessions {e cold} (parsed entries — request, selection, bound, and
    the DFS q-vectors and run count served — with no search, extraction
    or context build), and flip the server ready. Each cold session is
    rebuilt on its first touch over the context its create built, with
    the journaled DFSs restored rather than regenerated, so it serves
    exactly what was acknowledged — and boot does not pay
    O(sessions × n²) for sessions nobody asks for. Until this returns,
    [GET /ready] answers 503 and every non-probe route is refused with
    [503 + Retry-After: 1];
    [GET /health] stays 200 throughout (liveness). Torn journal tails (a
    crash mid-append) are truncated at the first bad checksum and counted
    under [recovery_truncated_records] in [/metrics]; a second recovery of
    the same directory is byte-identical. Idempotent; immediate no-op when
    the server has no [state_dir]. *)

val dataset_names : t -> string list

val handle : t -> Http.request -> Http.response
(** Route and serve one request, recording metrics. Handler exceptions
    become 500s; unmatched paths 404; matched paths with the wrong verb
    405 (with an [Allow] header). *)

(** {1 Serving} *)

type running

val start :
  ?threads:int -> ?idle_timeout:float -> ?max_pending:int -> port:int -> t ->
  running
(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port — see
    {!port}) and serve until {!stop}, with [threads] workers (default 4).
    Ignores SIGPIPE process-wide. [idle_timeout] (seconds, default 30)
    bounds every socket read, so a connection that goes quiet
    mid-request or between keep-alive requests is dropped rather than
    pinning its worker.

    [max_pending] (default 64) bounds the accepted-but-unserved connection
    queue: a connection arriving when the queue is full is {e shed} with
    [503 Service Unavailable] + [Retry-After: 1] (written off the acceptor
    thread, with a lingering close so the response survives). At half the
    bound the server starts degrading: multi-swap [/compare] requests are
    downgraded to single-swap and tagged [X-Degraded: algorithm].

    Transient accept errors (EMFILE, ENFILE, ECONNABORTED, ENOBUFS, ...)
    are retried with capped exponential backoff (counted under
    [accept_retries] in [/metrics]); the accept loop exits only via
    {!stop}.

    @raise Unix.Unix_error if the port is taken.
    @raise Invalid_argument if [threads < 1], [idle_timeout <= 0], or
    [max_pending < 1]. *)

val probe_request :
  host:string -> port:int -> ?meth:string -> ?body:string -> string ->
  (int * string) option
(** The short peer request behind discovery, election and fencing:
    [meth] (default [GET], [POST] with a [body]) [path] to [host:port]
    with 0.5 s socket timeouts, returning the status and body, or [None]
    when the peer cannot be reached or answers garbage. Never raises. *)

val shed : Unix.file_descr -> unit
(** What {!start}'s acceptor runs, on a thread of its own, for a
    connection it sheds: write the 503 + [Retry-After: 1], half-close,
    drain for up to a second, close [fd]. Never raises; a client already
    gone costs nothing but the attempt. *)

val port : running -> int
val stop : running -> unit
(** Close the listener, shut down live connections, drain the workers and
    join every thread. Returns promptly even when clients still hold open
    keep-alive connections. With a [state_dir], takes a final snapshot
    after the workers drain so a clean shutdown restarts from a compact
    snapshot with an empty journal. *)
