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
(** Precompute pair tables for a set of results (O(pairs × shared types ×
    features)). @raise Invalid_argument on fewer than 2 results.

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

(** {1 Delta operations}

    A context caches each pair's precomputed table independently, keyed by
    stable result identities, so mutations recompute only the pairs they
    touch and replay the rest. All three operations return a {e new}
    context — the input stays fully usable, which is what lets sessions
    keep history and lets a deadline tripping mid-delta leave the live
    context intact — and the result is {e bit-identical} to a fresh
    {!make_context} over the same result array (same params and
    weighting). *)

val add_result :
  ?deadline:Xsact_util.Deadline.t ->
  context ->
  Result_profile.t ->
  context
(** Append one result: computes only the [n] new pairs against the
    existing results and splices their links onto the live table — the
    untouched lists are shared, not replayed. O(n × shared types × features)
    instead of the batch O(n² × …).
    @raise Xsact_util.Deadline.Expired on a tripped deadline (the input
    context is untouched).
    @raise Invalid_argument if the context's weighting is negative on one
    of the new result's types. *)

val remove_result : context -> int -> context
(** Drop the result at an index — no first-gap scan, no pair replay, and
    O(what changed) list surgery instead of a full filter+reindex. Link
    lists are strictly descending in the partner index (a consequence of
    the batch merge order), so only the prefix of each list at or above
    the removed index is rebuilt; the rest is reused {e physically}.
    Removing the {e newest} result (the interactive undo) is the extreme
    case: nothing shifts, the pairs map serves as a per-result membership
    index naming exactly the lists that link to the removed result, and
    every untouched list, tail and row of the new table is the input's
    own allocation ([==], which the tests assert).
    @raise Invalid_argument if the index is out of range or the context
    has only two results (a context needs at least two). *)

val reparams :
  ?params:params ->
  ?weight:(Feature.ftype -> int) ->
  ?deadline:Xsact_util.Deadline.t ->
  context ->
  context
(** Re-derive the context under new parameters and/or weighting without
    re-extracting profiles. A weighting change alone rebuilds just the
    weight rows (the pair tables don't depend on weights); a [params]
    change invalidates the first-gap data and recomputes every pair — the
    same work as a one-op {!apply} batch.
    @raise Xsact_util.Deadline.Expired on a tripped deadline.
    @raise Invalid_argument on a negative weight. *)

(** One step of a batched mutation, consumed by {!apply}. *)
type op =
  | Add of Result_profile.t
  | Remove of int
      (** Index into the array as it stands {e at that point of the op
          list} — the same convention as folding the single-op deltas. *)
  | Reparams of {
      params : params option;
      weight : (Feature.ftype -> int) option;
    }

val apply :
  ?deadline:Xsact_util.Deadline.t ->
  context ->
  op list ->
  context
(** Coalesce a batch of mutations into one delta. Semantically the
    sequential fold of the single-op operations, and bit-identical to a
    fresh {!make_context} over the final result array — but the work is
    O(final change): the batch is first simulated symbolically, so a
    cancelling add/remove pair costs nothing, k adds share one pair
    worklist, and the link table is replayed exactly once at the end
    regardless of k. The last [Reparams] in the batch wins; when it
    changes [params], surviving pair tables are recomputed as part of the
    same single pass. [[]] returns the input context itself ([==]);
    singleton batches route to the surgical single-op deltas.
    @raise Invalid_argument if a [Remove] index is out of range at its
    point in the sequence, if the batch would leave fewer than two
    results, or on a negative weight.
    @raise Xsact_util.Deadline.Expired on a tripped deadline (the input
    context is untouched — all-or-nothing, like every delta). *)

val equal_context : context -> context -> bool
(** Observable equality: same params, the same result profiles
    (physically), and logically identical link tables (the packed link
    sequences, compared across segment boundaries — physical
    segmentation is a mutation-history artifact), weight rows and count
    maps — the bit-identity contract the delta operations promise
    against {!make_context}. Internal cache bookkeeping (stable ids) is
    deliberately ignored. *)

val num_pair_tables : context -> int
(** Cached per-pair tables currently held — [n (n - 1) / 2]. *)

val approx_bytes : context -> int
(** Rough heap footprint of the context (flat link buffers, cached pair
    entry tables, count/type maps) in bytes — the currency of the serve
    layer's unified warm-context memory budget. An estimate from
    heap-word accounting, not a measurement, and a function of the
    {e logical} content only: a delta-built context reports the same
    footprint as a fresh build of the same results, regardless of how
    its link storage happens to be segmented by the mutation history. *)

val fresh_link_words : parent:context -> context -> int
(** Diagnostic for the sharing tests: heap words of link-buffer storage
    in the second context that are {e not} physically shared with
    [parent]. Removing the newest result allocates zero fresh words;
    a general remove allocates only the rewritten prefixes. *)

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
(** The warm-boot wire form (DESIGN.md §14): params, stable result ids
    and the cached pair entry tables — exactly the data whose recompute
    is the O(n² × features) first-gap scan. Profiles and the weighting
    are {e not} included: the caller stores profiles beside the blob and
    reconstructs the weighting from its own request state, and
    {!deserialize_context} derives every remaining field from those. *)

val deserialize_context :
  ?weight:(Feature.ftype -> int) ->
  Result_profile.t array ->
  string ->
  (context, string) result
(** Rebuild a context from {!serialize_context}'s blob over the given
    profiles (which must be the same results, in the same order, as at
    serialization time — ids, counts and pair keys are cross-checked and
    any inconsistency, truncation or corruption is an [Error], never an
    exception or an unchecked allocation). The result is bit-identical
    to the serialized context, with [O(total links)] replay work and no
    first-gap scans. [weight] defaults to the uniform weighting, as in
    {!make_context}. *)

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
