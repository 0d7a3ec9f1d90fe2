(** The serve-side durability glue: session mutations → journal ops →
    snapshots, and their replay on boot.

    Sits between {!Session_store} (which fires a typed event per
    mutation) and {!Xsact_persist.Store} (which frames, checksums and
    fsyncs opaque payloads). Ops are JSON one-liners:

    {v
      {"op":"create","id":"s1","t":1723.4,"entry":{ ...session... }}
      {"op":"add",   "id":"s1","t":1724.0,"entry":{ ...session... }}
      {"op":"remove" | "size" | "set", ... same shape ... }
      {"op":"delete","id":"s1"}      explicit DELETE /session/:id
      {"op":"expire","id":"s1"}      TTL expiry
      {"op":"evict", "id":"s1"}      LRU capacity eviction
    v}

    Every state-carrying op embeds the session's {e full} durable state
    (dataset, originating request, current ranks and size bound), so
    replay is a trivial last-writer-wins fold over upserts and deletes —
    idempotent by construction, which is what makes the
    snapshot-then-truncate compaction ordering safe (see
    {!Xsact_persist.Store}).

    The module keeps an in-memory mirror of that fold. Compaction
    serializes the mirror instead of re-reading the session store, so it
    can run inline inside the store's event hook (which runs under the
    server's session lock) without lock-order inversion. Lock order is
    strictly [Server.session_update → Durability.mutex]; nothing here
    calls back into the session store. *)

type t

type recovered = {
  entries : (string * float * Json.t) list;
      (** live sessions after the fold: id, last-mutated stamp, entry
          JSON — sorted by id for deterministic replay *)
  next_id : int;  (** first session number safe to mint *)
}

val recover :
  dir:string ->
  fsync:Xsact_persist.Journal.policy ->
  snapshot_every:int ->
  t * recovered
(** Open (creating if needed) the state directory, cut any torn tails,
    fold snapshot + journal, and start accepting ops. [snapshot_every]
    compacts after that many journal appends (0 disables auto-compaction;
    explicit {!snapshot_now} still works). *)

val log_upsert : t -> op:string -> id:string -> at:float -> entry:Json.t -> unit
(** Journal a state-carrying op (["create"], ["add"], ["remove"],
    ["size"], ["set"]) and update the mirror; may compact inline. Raises
    whatever the underlying append raises (disk full, injected fault) —
    the caller's mutation then fails visibly rather than silently losing
    durability. *)

val log_delete : t -> op:string -> id:string -> unit
(** Journal a deleting op (["delete"], ["expire"], ["evict"]). *)

val mark_dropped : t -> unit
(** Count a recovered entry the server could not rebuild (e.g. its
    dataset is no longer loaded). *)

val snapshot_now : t -> unit
(** Compact unconditionally and fsync — the drain-then-snapshot barrier
    [Server.stop] runs after the last worker exits. *)

val flush : t -> unit
(** Fsync the journal regardless of policy. [Server.stop] runs this after
    the worker drain and {e before} attempting the final snapshot: under
    [Interval] fsync, acked ops from the last interval would otherwise
    ride only on the page cache while the (fallible) snapshot runs. *)

val stats_json : t -> Json.t
(** The [/metrics] durability section: journal_appends, journal_bytes,
    snapshots_total, since_snapshot, recovery_ms,
    recovery_truncated_records, recovered_sessions, recovery_dropped,
    journal_offset, state_digest, fence_epoch, fence_winner. *)

(** {1 Replication}

    The primary streams its journal to followers byte-for-byte; both ends
    use the hooks below. A replication cursor is [(boot, gen, offset)]:
    the primary's {!boot_id} (offsets are meaningless across restarts),
    its compaction generation {!gen} ([snapshots_total] — a compaction
    truncates the journal, invalidating offsets), and a byte offset into
    its journal file. Any mismatch downgrades to a full {!resync}.

    The {e fencing epoch} is a different counter entirely: a durable,
    monotone promotion count ({!fence_epoch}) that coordinated failover
    compares across nodes — promotion mints the next epoch durably
    before the new primary serves a mutation, and any node observing a
    higher epoch than its own knows it has been superseded. *)

(** One parsed journal payload — the shape the replay fold consumes.
    {!append_replicated} returns it, so the serve layer mirrors a
    replicated record into its live session store without parsing it
    twice. *)
type parsed =
  | P_upsert of { id : string; at : float; entry : Json.t }
  | P_delete of string
  | P_meta of int  (** snapshot meta: first session number safe to mint *)
  | P_unknown  (** counted under [recovery_dropped] *)

val boot_id : t -> string
(** Unique per process (pid + boot stamp). *)

val gen : t -> int
(** Compaction generation: compactions so far — bumps whenever journal
    offsets are invalidated. Purely a stream-resumption validity check;
    nothing to do with failover ordering (that is {!fence_epoch}). *)

val fence_epoch : t -> int
(** The durable failover epoch (0 until a promotion ever touches this
    directory's history). Read from [<state-dir>/epoch] at {!recover},
    before the server serves anything. *)

val fence_winner : t -> string option
(** The [HOST:PORT] of the higher-epoch winner that fenced this node
    while it was primary, if any — a node recovering with a winner on
    disk must boot as a read-only follower of that winner, {e not} as a
    primary. [None] on a healthy primary or an ordinary follower. *)

val set_fence : t -> epoch:int -> ?winner:string -> unit -> unit
(** Durably advance the fencing epoch (atomic write + fsync of the epoch
    file {e before} the in-memory fields change). The epoch is monotone:
    a lower [epoch] is ignored; an equal one may still update [winner].
    Promotion calls this with the minted epoch and no winner (clearing
    any fence); fencing demotion calls it with the observed epoch and
    the winner's address; a follower adopting its primary's epoch calls
    it with no winner. *)

val journal_file : t -> string
val journal_offset : t -> int
(** Current journal length in bytes — where a fresh follower starts. *)

val since_snapshot : t -> int
(** Journal records appended since the last compaction. *)

val replayed_records : t -> int
(** Payloads folded into state: recovery replay plus replicated applies —
    the [/ready] progress counter. *)

val next_id : t -> int

val digest : t -> int
(** CRC-32 (as a non-negative int) over the canonical serialization of
    the live replay fold. Equal digests ⇒ both replicas recover identical
    session state; the divergence check compares the follower's against
    the primary's heartbeat. *)

type resync = {
  r_boot : string;
  r_gen : int;
  r_offset : int;
  r_records : int;  (** primary's [since_snapshot] — the lag baseline *)
  r_digest : int;
  r_payloads : string list;
      (** full state as snapshot-shaped payloads (meta first) *)
}

val resync : t -> resync
(** Atomic full-state capture: the payloads, the cursor that makes the
    journal tail from [r_offset] a valid continuation of them, and the
    digest of the captured state. *)

val install_resync : t -> string list -> recovered
(** Follower: replace the entire fold with the primary's resync payloads,
    compact them into the local snapshot and fsync — after this the
    follower's state directory recovers to exactly the primary's acked
    state, with no dependence on the primary being alive. Returns the
    fold as {!recover} would. *)

val append_replicated : t -> string -> parsed
(** Follower: append one replicated journal record verbatim and fold it —
    the replicated counterpart of {!log_upsert}/{!log_delete}. May
    compact inline like any append. Returns the record as folded. *)
