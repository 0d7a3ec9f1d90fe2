(** Interactive comparison sessions.

    The demo's UI lets a user tick and untick result checkboxes and adjust
    the table size; recomputing each table from scratch wastes the work
    already done. A session keeps the current DFSs and warm-starts the
    generation algorithm from them after every change — previous selections
    remain valid for the unchanged results, so the climb (or best-response
    loop) resumes near its fixpoint instead of from top-k. (Warm starting
    applies to the two swap algorithms; the other methods recompute - they
    are cheap or stochastic by nature.)

    The precomputed {!Dod.context} is maintained the same way: every
    mutation is one {!apply} batch, simulated once here and handed to
    {!Dod.rearrange} as the final arrangement, so a batch of k ops costs
    one context pass and one DFS regeneration, resizing reuses the
    context verbatim, and a parameter or weighting change ({!Reparams})
    never re-extracts profiles — bit-identical to a fresh build in every
    case. [Config.incremental = false] restores full rebuilds as an
    ablation baseline. The session's profiles are its context's results:
    there is one copy of the arrangement.

    Sessions are immutable: every operation returns a new session, so the
    UI's undo is free — and a deadline tripping mid-mutation leaves the
    input session (context included) fully usable. *)

type t

val create :
  ?config:Config.t ->
  ?context:Dod.context ->
  size_bound:int ->
  Result_profile.t list ->
  (t, Error.t) result
(** Start a session over at least two results. The session keeps [config]
    (default {!Config.default}) for its whole lifetime: every rebuild —
    including warm-started ones — honors its parameters, weighting and
    algorithm. [Exhaustive] is rejected with [Unsupported_algorithm].

    [context], when given, is adopted instead of building one, and its
    results become the session's profiles — the caller (the serve
    layer's intern table) guarantees it is the context a fresh build over
    [profiles] under [config] would produce, which the delta operations'
    bit-identity contract makes checkable. *)

val restore :
  ?runs:int ->
  config:Config.t ->
  size_bound:int ->
  context:Dod.context ->
  dfss:Dfs.t array ->
  unit ->
  (t, Error.t) result
(** Adopt a context and DFSs with {e no} search, extraction, context
    build or DFS generation — how the serve layer brings back a session
    it journaled or demoted (DESIGN.md §10): the caller rebuilt
    [context] as a fresh {!create} over the same results would, and the
    DFSs from the q-vectors the session served; the session's profiles
    are [context]'s results. The same request-level validations as
    {!create} apply ([Exhaustive], result count, bound), and every DFS is
    re-checked for arity, size and downward closure at [size_bound]. A
    restored session is observably identical to the one it resumes —
    including its {!stats} run count when the caller kept it ([runs],
    default 1, clamped from below to 1).
    @raise Invalid_argument on an arity mismatch, a DFS over a foreign
    profile, or an invalid DFS — stale or corrupt resume data, which the
    caller turns into a fresh generation. *)

val intern : t -> context:Dod.context -> t
(** Swap in a canonical, physically shared context that is structurally
    identical to the session's own — how a session adopts the intern
    table's copy after publishing a context another session already
    holds. Purely a sharing change: every observable output is
    unchanged. *)

(** {1 State} *)

val config : t -> Config.t

val profiles : t -> Result_profile.t array
(** The context's results, in session order. *)

val dfss : t -> Dfs.t array
val dod : t -> int
val size_bound : t -> int

val context : t -> Dod.context
(** The live precomputed pair tables — what the serve layer keeps warm
    across requests and accounts for in its memory budget. *)

val table : t -> Table.t
(** Built on demand from the current state. *)

(** {1 Operations}

    Every change is one {!apply} batch, which takes an optional
    [deadline] bounding the context maintenance (the anytime DFS
    regeneration that follows is not deadline-bound — warm-started, it is
    cheap). A tripped deadline raises {!Xsact_util.Deadline.Expired} and
    leaves the input session intact. *)

(** One step of a session mutation, consumed by {!apply}. [Remove]
    indexes the profile array as it stands at that point of the op list
    (resizes do not shift indices). *)
type op =
  | Add of Result_profile.t
  | Remove of int
  | Set_size_bound of int
  | Reparams of {
      params : Dod.params option;
      weight : (Feature.ftype -> int) option;
    }

val apply : ?deadline:Xsact_util.Deadline.t -> t -> op list -> (t, Error.t) result
(** Apply a batch of mutations as one step: the ops are validated and
    simulated symbolically in one pass (so validation, and a batch that
    cancels itself out, cost no pair work), the context is updated by a
    single {!Dod.rearrange} to the final arrangement — or one rebuild
    under the ablation config — and the DFSs regenerate {e exactly
    once}, warm-started uniformly:
    surviving results resume from their current DFS, added ones (appended
    last) seed from top-k at the final bound. [Set_size_bound] reuses the
    context (it does not depend on the bound); when the final bound
    shrank, survivors resume from their truncated prefixes — dropping
    features from the least significant selected types keeps every
    intermediate DFS valid (Desideratum 2), so no cold restart is needed.
    The last [Reparams] values win and are kept in the session's config
    for all later operations; they never re-extract profiles. A batch
    whose net effect is nothing (e.g. only cancelling add/remove pairs,
    or a resize to the current bound) returns the input session itself.
    Errors: [Index_out_of_range] for a [Remove] out of range,
    [Too_few_selected] for a [Remove] that would leave fewer than two
    results, [Bound_too_small] for a bound below 1 — checked against the
    {e sequential} state, before any work. @raise Invalid_argument on a
    negative weight. *)

val stats : t -> int
(** Number of algorithm invocations performed by this session so far
    (diagnostic; shared along the history chain). *)
