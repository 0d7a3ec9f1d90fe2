(** Refcounted cross-session interning of warm contexts.

    One entry per canonical context key ({!Api.canonical_key}
    [~scope:Context]): the physically shared (profiles, context) pair,
    the number of warm sessions pinning it, and its
    {!Dod.approx_bytes}. N sessions over the same corpus and parameters
    hold {e one} physical context; [POST /compare]'s warm-context reuse
    reads the same table without pinning, so warm-session contexts and
    the compare cache are one population sized against one byte ledger
    (the server's [--max-context-mb] budget).

    Unpinned entries ([refs = 0]) form the reuse cache: they are evicted
    least-recently-used first when the ledger exceeds [max_bytes] or
    their count exceeds [cache_capacity]. Pinned entries are never
    evicted here — when pinned bytes alone bust the budget, the serve
    layer demotes sessions, whose {!release}s make entries unpinned and
    thus evictable.

    Thread-safe; the internal mutex is a leaf (no operation calls out of
    the module), so callers may hold the server's session lock. *)

type t

val create :
  ?max_bytes:int ->
  ?cache_capacity:int ->
  ?now:(unit -> float) ->
  unit ->
  t
(** [max_bytes]: the shared byte budget; omit for unbounded.
    [cache_capacity] (default 32): maximum {e unpinned} entries held for
    reuse. [now] injects the LRU clock for deterministic tests.
    @raise Invalid_argument on a non-positive [max_bytes] or negative
    [cache_capacity]. *)

val acquire : t -> string -> (Result_profile.t array * Dod.context) option
(** Take a reference on the entry under this key, if present. [Some]
    counts a hit and pins the entry; [None] counts a miss — build, then
    {!publish}. *)

val publish :
  t ->
  string ->
  profiles:Result_profile.t array ->
  context:Dod.context ->
  Result_profile.t array * Dod.context
(** Install a freshly built pair under [key] with one reference — or, if
    the key is already held (a racing builder or a cached entry), take a
    reference on the {e existing} entry and return its pair so the caller
    adopts the canonical copy ({!Session.intern}) and drops its own. *)

val release : t -> string -> unit
(** Drop one reference. The entry stays as an unpinned reuse-cache entry
    (the interactive undo: re-adding the result a session just removed is
    an {!acquire} hit), subject to eviction. Callers release exactly the
    references they hold — in the serve layer, a session cell holds one
    exactly while it is warm, and every transition runs under one lock. *)

val peek : t -> string -> (Result_profile.t array * Dod.context) option
(** Read without pinning — the [/compare] warm path. Refreshes recency
    and counts a hit/miss. *)

val insert_cached :
  t ->
  string ->
  profiles:Result_profile.t array ->
  context:Dod.context ->
  unit
(** Install an unpinned reuse-cache entry (a completed [/compare] build);
    a no-op when the key is already held. *)

val bytes_live : t -> int
(** The ledger: Σ {!Dod.approx_bytes} over all entries, pinned and
    unpinned. *)

type stats = {
  entries : int;
  pinned : int;  (** entries with [refs > 0] *)
  refs_total : int;
  bytes_live : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats

val cache_capacity : t -> int
