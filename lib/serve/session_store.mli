(** An id → value store for server-resident sessions, with optional
    idle-TTL expiry, LRU capacity eviction, and mutation events for the
    durability layer.

    Not thread-safe: the caller serializes every call, as with
    {!Xsact_persist.Store}. The server runs each one under its one
    session lock.

    Ids are deterministic ("s1", "s2", ...) so tests and curl transcripts
    are reproducible. Values are replaced wholesale with [set].

    Expiry is lazy: entries idle longer than the TTL are dropped on the
    next access (no background thread), and [add] additionally evicts the
    least-recently-used entries when the store is at capacity. [find] and
    [set] refresh an entry's idle clock.

    Every mutation — insert, replace, remove, TTL expiry, LRU eviction —
    fires the [on_event] hook {e after the table change}, inside the
    mutating call and so under the caller's lock. A journaling hook
    observes events in exactly the order the mutations took effect, and
    a mutation is acknowledged to the caller only once its event handler
    returned (a hook that raises fails the mutating call after the
    in-memory change applied — the caller surfaces the error and the next
    successful full-state event or snapshot heals the journal). The hook
    must not call back into this store. Reads ([find], [count], [ids])
    never fire events: recency refreshes are not durable state. *)

type 'a t

type 'a event =
  | Created of { id : string; value : 'a; at : float }
  | Updated of { id : string; origin : string; value : 'a; at : float }
      (** [origin] labels the mutation for the journal ("add", "remove",
          "size", "apply" for an op batch, "params" for a parameter
          patch, or "set" when unlabelled). *)
  | Removed of { id : string; value : 'a }
  | Expired of { id : string; value : 'a }
  | Evicted of { id : string; value : 'a }
      (** Removal events carry the dropped value so the serve layer can
          release per-session resources (intern-table references) the
          moment the entry leaves the store. *)

val create :
  ?ttl_s:float ->
  ?capacity:int ->
  ?now:(unit -> float) ->
  ?on_event:('a event -> unit) ->
  unit ->
  'a t
(** [ttl_s]: drop entries idle (not accessed) longer than this many
    seconds; omit for no expiry. [capacity]: maximum live entries — adding
    past it evicts the least-recently-used; omit for unbounded. [now]
    (default [Unix.gettimeofday]) injects the clock for deterministic
    tests. [on_event] observes mutations (see above); omitting it keeps
    every operation hook-free and allocation-identical to a plain store.
    @raise Invalid_argument on a non-positive [ttl_s] or [capacity]. *)

val add : 'a t -> 'a -> string
(** Store a fresh value and return its id, evicting expired/LRU entries
    first as needed. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's idle clock. An entry past its TTL is gone —
    [find] never resurrects it. *)

val set : ?origin:string -> 'a t -> string -> 'a -> unit
(** Replace the value under a live [id], refreshing its clock. [origin]
    (default ["set"]) tags the resulting [Updated] event. It never
    re-creates an entry: a removed session stays removed.
    @raise Invalid_argument if [id] is not in the store. *)

val remove : 'a t -> string -> bool
(** [true] if the id was present. *)

val drop : 'a t -> string -> 'a option
(** Replication-only: remove the entry under [id] {e without} firing any
    event, returning the dropped value (so the caller can release the
    resources it held). A follower applying a replicated delete must not
    re-journal it as a local mutation — the replicated record itself is
    appended to the follower's journal by the replication path. *)

val restore : 'a t -> id:string -> last_used:float -> 'a -> unit
(** Recovery-only: install an entry under its pre-crash id with its
    pre-crash idle clock, firing no event, and bump the id counter past
    it so future [add]s never collide. Skips TTL/LRU hygiene — recovery
    decides liveness by replaying expire/evict ops, not by re-judging
    timestamps against a clock that kept running while the process was
    down. *)

val ensure_next : 'a t -> int -> unit
(** Raise the id counter to at least [n] (recovery: ids must never be
    reused even when every recovered session was deleted). *)

val count : 'a t -> int
(** Live (unexpired) entries. *)

val ids : 'a t -> string list
(** Sorted live ids, for listings. *)

val expired_total : 'a t -> int
(** Entries dropped by TTL expiry since creation. *)

val evicted_total : 'a t -> int
(** Entries dropped by LRU capacity eviction since creation. *)

val fold :
  'a t -> init:'b -> f:(string -> 'a -> last_used:float -> 'b -> 'b) -> 'b
(** Read-only fold over the live entries, in unspecified order. Unlike
    {!find} it neither purges expired entries nor refreshes idle clocks —
    it is an observation, not an access — which is what the serve layer's
    memory accounting needs (ranking warm contexts by [last_used] without
    perturbing the ranking). [f] must not call back into the store. *)
