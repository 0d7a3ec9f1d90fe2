(** The Degree of Differentiation objective (Desideratum 3).

    DFSs [D_i] and [D_j] are {b differentiable in a feature type} [t] iff
    both select at least one feature of [t] and some feature of [t] visible
    in [D_i] or [D_j] has occurrence measures in the two results differing
    by more than [threshold_pct]% of the smaller (an absent feature measures
    0, making any non-zero gap qualify). [DoD(D_i, D_j)] counts such types,
    and the total objective is the sum over all result pairs.

    The occurrence measure is either the raw count (the paper's wording) or
    the count normalized by the entity population in its result — "8 of 11
    reviews" vs "38 of 68" — exposed as an ablation.

    A {!context} precomputes, for every result pair and every shared feature
    type, the {e first-gap index}: the smallest prefix length whose features
    witness a gap. Differentiability then becomes two integer comparisons,
    which is what makes the swap algorithms cheap:
    [diff(t, q_i, q_j) = q_i >= 1 && q_j >= 1 &&
     (first_gap_i <= q_i || first_gap_j <= q_j)]. *)

type measure = Raw | Rate

type params = { threshold_pct : float; measure : measure }

val default_params : params
(** [{ threshold_pct = 10.0; measure = Raw }] — the paper's setting. *)

type context

val make_context :
  ?params:params ->
  ?weight:(Feature.ftype -> int) ->
  ?domains:int ->
  ?deadline:Xsact_util.Deadline.t ->
  Result_profile.t array ->
  context
(** Precompute pair tables for a set of results (O(pairs × (types +
    shared features × log features))). Each pair is built from the
    profiles' ids ({!Result_profile.type_info}'s [type_id], [value_id]):
    one merge of the two type-id arrays, then a binary search per feature,
    no string compared. Profiles from any source — the corpus scan,
    {!Result_profile.make} — mix freely, since they share one symbol
    table. @raise Invalid_argument on fewer than 2 results.

    [deadline] bounds the build cooperatively: the token is checked on
    entry and polled before every result pair, and a tripped token raises
    {!Xsact_util.Deadline.Expired} — a context is all-or-nothing, so there
    is no degraded partial form.

    [domains] is ignored; it is kept only because e2ebench/replay.ml
    passes it.

    [weight] (default [fun _ -> 1]) realizes the paper's "interestingness"
    future-work direction: each feature type contributes its weight, rather
    than 1, to the degree of differentiation, so users can prioritize
    attributes they care about ("considering more factors (e.g.,
    interestingness) when selecting features for DFS"). Weights must be
    non-negative; a zero weight makes a type worthless to the objective
    while it can still be selected as filler. All algorithms optimize the
    weighted objective transparently. @raise Invalid_argument on a negative
    weight. *)

val weight_of : context -> i:int -> gi:int -> int
(** The weight of a type of result [i] under the context's weighting. *)

(** {1 Deltas}

    A context caches each pair's precomputed table independently, keyed by
    stable result identities, so a mutation computes only the pairs it
    adds and replays the rest. {!rearrange} is the one way a context
    changes: it returns a {e new} context — the input stays fully usable,
    which is what lets sessions keep history and lets a deadline tripping
    mid-delta leave the live context intact — and the result is
    {e bit-identical} to a fresh {!make_context} over the same result
    array (same params and weighting). It takes the final arrangement,
    not an op list: {!Session.apply} is the one interpreter of op
    batches. *)

val rearrange :
  ?deadline:Xsact_util.Deadline.t ->
  ?params:params ->
  ?weight:(Feature.ftype -> int) ->
  context ->
  keep:int list ->
  add:Result_profile.t list ->
  context
(** [rearrange c ~keep ~add] is the context over the results of [c] at
    the indices [keep], in order, followed by [add], under [params] and
    [weight] (each defaulting to [c]'s). Every cached pair table between
    survivors is reused unless [params] differ from [c]'s; only the
    missing pairs are computed (those touching added results, or all of
    them after a params change), and the link table is replayed exactly
    once, in O(total links). A weighting change alone recomputes no pair
    (the pair tables do not depend on weights). The same arrangement
    under the same params and no [weight] returns [c] itself ([==]).
    @raise Invalid_argument if [keep] is not strictly increasing or names
    an index out of range (stable-id orientation depends on survivors
    keeping their order), if the result would hold fewer than two
    results, or on a negative weight.
    @raise Xsact_util.Deadline.Expired on a tripped deadline: the token
    is checked on entry and polled before every computed pair (the input
    context is untouched — all-or-nothing). *)

val equal_context : context -> context -> bool
(** Observable equality: same params, the same result profiles
    (physically), and identical link tables and weight rows — the
    bit-identity contract {!rearrange} promises against {!make_context}.
    Internal cache bookkeeping (stable ids) is deliberately ignored. *)

val num_pair_tables : context -> int
(** Cached per-pair tables currently held — [n (n - 1) / 2]. *)

val approx_bytes : context -> int
(** Rough heap footprint of the context (the link buffer and its
    per-list offsets, cached pair entry tables, weight rows) in bytes — the currency of the serve layer's unified warm-context memory
    budget. An estimate from heap-word accounting, not a measurement.
    Every context holds its links in one canonical layout, so a
    delta-built context reports the same footprint as a fresh build of
    the same results. *)

val params : context -> params
val results : context -> Result_profile.t array
val num_results : context -> int

val infinity_gap : int
(** Sentinel first-gap value meaning "no prefix of this side witnesses a
    gap". *)

type link = {
  other : int;  (** index of the other result *)
  gi_other : int;  (** the type's global index in the other result *)
  gap_self : int;  (** first-gap index on this side (1-based), or
                       {!infinity_gap} *)
  gap_other : int;  (** first-gap index on the other side *)
}

val links : context -> i:int -> gi:int -> link list
(** All results sharing type [gi] of result [i], with gap data oriented from
    [i]'s point of view. A materialized view of the packed storage —
    convenient for tests and cold paths; hot loops should use
    {!iter_links} or {!num_links}, which allocate nothing. *)

val iter_links :
  context ->
  i:int ->
  gi:int ->
  (other:int -> gi_other:int -> gap_self:int -> gap_other:int -> unit) ->
  unit
(** Iterate the links of type [gi] of result [i] in list order
    (strictly descending [other]) without materializing records. *)

val num_links : context -> i:int -> gi:int -> int
(** Number of links of type [gi] of result [i] — [List.length] of
    {!links} without building it. *)

val differentiable : link -> q_self:int -> q_other:int -> bool

val dod_pair : context -> i:int -> j:int -> Dfs.t -> Dfs.t -> int
(** [DoD(D_i, D_j)] — the weighted sum over differentiable shared types
    (the plain type count under the default uniform weighting). The DFSs
    must belong to results [i] and [j] of the context. *)

val total : context -> Dfs.t array -> int
(** Σ_{i<j} DoD(D_i, D_j). @raise Invalid_argument if the array length does
    not match the context. *)

val threshold_q : link -> q_other:int -> int
(** Minimal [q_self] making the pair differentiable on this type, given the
    other side's current selection ({!infinity_gap} when impossible). *)

val delta_for_type :
  context -> dfss:Dfs.t array -> i:int -> gi:int -> old_q:int -> new_q:int -> int
(** Change in total DoD from setting type [gi] of result [i] from [old_q] to
    [new_q] selected features, all other selections fixed. *)

val upper_bound_pair : context -> i:int -> j:int -> int
(** Total weight of the shared types of the pair that can possibly be
    differentiable (both sides fully selected) — a cheap upper bound on the
    weighted {!dod_pair}, used by tests. Under the default uniform
    weighting this is the plain type count. *)

(** {1 Serialization} *)

val serialize_context : context -> string
(** The canonical dump tests digest: params, stable result ids and the
    cached pair entry tables — exactly the data whose recompute is the
    O(n² × features) first-gap scan — as 64-bit little-endian words.
    Profiles and the weighting are {e not} included. Two contexts with
    equal dumps over the same profiles are bit-identical. *)

(** {1 Explanations} *)

type witness = {
  feature : Feature.t;  (** the gap-witnessing feature *)
  measure_i : float;  (** its measure in result [i] (0 when absent) *)
  measure_j : float;  (** its measure in result [j] *)
}
(** Why a feature type differentiates a result pair: the first selected
    feature whose measures differ by more than the threshold. *)

val witness :
  context -> i:int -> j:int -> Dfs.t -> Dfs.t -> gi:int -> witness option
(** [witness c ~i ~j di dj ~gi] explains why type [gi] (of result [i])
    differentiates the pair under the given DFSs — [None] when it does not.
    The witness is the first gapped feature of [i]'s selected prefix, or
    failing that of [j]'s. *)

val explain_pair :
  context -> i:int -> j:int -> Dfs.t -> Dfs.t -> (Feature.ftype * witness) list
(** All differentiating types of the pair with their witnesses, in result
    [i]'s type order. *)
