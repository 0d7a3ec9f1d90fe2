(** Journal shipping: a primary streams its durability journal to live
    followers, which apply every record through the same replay path
    recovery uses — so a follower is a warm, read-serving replica whose
    state directory is always a valid recovery image.

    {b Wire protocol.} The follower issues
    [GET /v1/replicate?boot=B&gen=G&from=O&epoch=E] (cursor params
    absent on a cold connect; [epoch] — the {e follower's} durable
    fencing epoch — always present, so a superseded primary learns of
    its fencing from its own subscribers). The primary answers [200]
    with [Content-Type: application/x-xsact-frames], then sends messages
    until the connection closes: one kind byte, then one journal frame
    (length, CRC-32, payload) that the follower reads with the journal's
    own {!Xsact_persist.Journal.input_frame}:

    - [S] — resync header, JSON: the cursor (primary boot id, compaction
      [gen], journal byte [offset]) the record stream continues from,
      [records], the state [digest], the primary's fencing [epoch], and
      the count [payloads] of the [P] frames (state payloads, meta first)
      that follow. The follower resets once all have arrived; any other
      kind in between drops the stream;
    - [R] — one journal record, verbatim; the follower's byte cursor
      advances by [Journal.header_bytes + length];
    - [H] — heartbeat every ~0.2 s, JSON: [gen], [epoch], [records] (the
      lag baseline: primary records since its last compaction) and
      [digest] (the divergence probe).

    A clean end is a close at a message boundary. The follower reads every
    frame under [Journal.default_max_record_bytes], and one resync's [P]
    frames under 64 times that (1 GiB) together, kind bytes and headers
    included: past either bound it drops the stream and reconnects. There
    is no version negotiation: both ends ship in one binary, and a
    cluster is upgraded together.

    The stream self-heals: a stale or absent cursor, a compaction on the
    primary (gen bump), or a torn read each downgrade to a fresh resync.
    The follower detects {e divergence} — it believes itself caught up
    ([records = applied]) yet its {!Durability.digest} disagrees with
    the heartbeat's — counts it, drops its cursor and reconnects,
    forcing a healing resync.

    {b Failover.} The client is re-pointable: when its primary goes
    silent past a probe threshold (~0.75 s) or answers with a fencing
    epoch below this node's own ([on_epoch] returns false), it walks the
    peer list ([probe]) for the current primary and re-subscribes there
    without losing its applied tail (same-primary reconnects keep the
    cursor; a changed primary drops it, forcing a resync). All reconnect
    and probe delays are jittered (0.5–1.5×) so a fleet of followers
    losing one primary never stampedes in lockstep.

    {b Failpoints}: [repl.apply.corrupt] (follower) swallows a record
    while advancing the cursor — manufactured divergence for tests. *)

val serve_stream :
  durability:Durability.t ->
  oc:out_channel ->
  ?boot:string ->
  ?gen:int ->
  ?from:int ->
  stopping:(unit -> bool) ->
  unit ->
  unit
(** Primary side. Takes over the connection's [oc] after the request was
    read and writes the entire response, polling the journal file
    (~45 ms) and streaming records as they are acked, until the follower
    disconnects or [stopping ()] — never raises. The caller closes the
    connection. *)

type client

val start_client :
  ?primary:string * int ->
  durability:Durability.t ->
  my_epoch:(unit -> int) ->
  on_epoch:(string * int -> int -> bool) ->
  ?probe:(unit -> (string * int) option) ->
  ?on_repoint:(string * int -> unit) ->
  apply:(string -> unit) ->
  reset:(payloads:string list -> unit) ->
  ?takeover_after:float ->
  ?on_lost:(unit -> (string * int) option) ->
  unit ->
  client
(** Follower side: a background thread that connects to [primary]
    (discovering one via [probe] when absent or lost), reconnecting with
    capped jittered exponential backoff (50 ms → 1 s), and drives
    [apply] with each replicated journal payload and [reset] with each
    resync's full payload list — both called from
    the replication thread; they own journaling the data locally
    ({!Durability.append_replicated} / {!Durability.install_resync}) and
    mirroring it into live state.

    [my_epoch] supplies this node's durable fencing epoch for the
    subscribe query. [on_epoch p e] is called with every epoch-bearing
    message from primary [p]: return [false] to declare that primary
    stale (the connection is abandoned and discovery runs); returning
    [true] may also durably adopt [e]. [on_repoint] fires whenever the
    subscription target changes (including the first discovery).

    Only messages from a valid primary (and a clean end-of-stream)
    refresh the liveness clock — merely connecting does not, so a
    live-but-stale primary cannot suppress takeover. With
    [takeover_after], a primary silent for that many seconds runs
    [on_lost] on the replication thread — the server's election.
    [Some p] re-points this client at [p] (counted under {!repoints});
    [None] ends the thread (the server promoted itself, which must
    {e not} join this thread, or is closing). *)

val stop_client : ?join:bool -> client -> unit
(** Idempotent; unblocks any parked read. [join] (default true) waits for
    the thread — pass [false] from [on_lost] itself. *)

val lag_records : client -> int
(** Primary records (since its last compaction) not yet applied here —
    0 when caught up, as reported by [/ready]. *)

val connected : client -> bool

val applied_records : client -> int

val resyncs : client -> int

val divergences : client -> int

val repoints : client -> int
(** Times the subscription target changed (first discovery included). *)
