(** The typed request/response layer of the comparison service.

    [POST /compare] bodies decode into one {!compare_request} value — the
    single source of truth for defaults, validation, the {!canonical_key}
    normalization and the {!to_config} mapping onto the core API. Handlers
    never look at raw JSON beyond this module. *)

type compare_request = {
  dataset : string;
  keywords : string;  (** normalized: tokenized and re-joined *)
  select : int list option;  (** 1-based ranks; [None] = first [top] *)
  top : int;
  size_bound : int;
  algorithm : Algorithm.t;
  threshold_pct : float;
  measure : Dod.measure;
  weights : (string * int) list;
      (** attribute-substring interestingness rules, sorted by pattern *)
}

val decode_compare : Json.t -> (compare_request, string) result
(** Decode a request body. Required: ["dataset"], ["q"]. Optional with
    defaults: ["select"], ["top"] (4), ["size_bound"] (8), ["algorithm"]
    (["multi-swap"]), ["threshold_pct"] (10.0), ["measure"] (["raw"]),
    ["weights"] (object of attribute-pattern → weight). Unknown fields
    are ignored, so journal records carrying retired fields still
    decode. Keywords are normalized via
    {!Xsact_search.Token.normalize_query}, so requests differing only in
    case/whitespace decode identically; more than
    {!Xsact_search.Slca.max_keywords} distinct keywords is an error, and
    so are a negative weight (the message names its pattern) and a
    non-finite ["threshold_pct"] (e.g. [1e400], which parses to
    infinity). *)

val decode_keywords : string -> (string, string) result
(** The keyword normalization used by {!decode_compare}, exposed so
    [GET /search] agrees with the cache key: the normalized keywords joined
    by single spaces, or an error when they number more than
    {!Xsact_search.Slca.max_keywords}. *)

val json_of_compare : compare_request -> Json.t
(** Inverse of {!decode_compare}: [decode_compare (json_of_compare r) =
    Ok r], through the printed text too — {!Json.to_string} prints every
    finite threshold in a form that parses back to the same float. The
    durability journal stores session requests in exactly the
    request-body format, so journal dumps read like curl transcripts. *)

(** Key scopes for {!canonical_key}: [Full] covers every field that
    shapes the response body (the comparison cache); [Context] covers
    exactly the fields the {!Dod.context} is a function of — dataset,
    keywords, selection, threshold, measure, weights — and {e not}
    [size_bound] or [algorithm], neither of which the pair tables
    depend on. *)
type key_scope = Full | Context

val canonical_key : scope:key_scope -> compare_request -> string
(** The one canonical request-normalization routine. Field order is fixed
    and pinned by a golden test:
    [ds, q, sel, [k, alg,] thr, measure, w] — the bracketed
    fields appear only at [Full] scope. [sel] is the explicit rank list
    ("1,3,4") or ["top<k>"] when the request selects by prefix. [thr]
    is [Json.shortest_g ~digits:6] of the threshold — ["%g"] wherever
    that reads back as the same float, more digits otherwise — so
    distinct thresholds never share a key. Equal
    requests (after keyword normalization and weight-rule sorting) have
    equal keys; requests sharing a [Context] key can share one physical
    warm context across resizes and algorithm switches. *)

val to_config : compare_request -> Config.t

(** {1 Session mutation bodies}

    [POST /session/:id/apply] carries an op batch; [PATCH
    /session/:id/params] carries a bare {!params_patch}. Both decode here
    so handlers stay JSON-free. *)

type params_patch = {
  p_threshold : float option;
  p_measure : Dod.measure option;
  p_weights : (string * int) list option;
}
(** A partial update of the differentiation parameters: absent fields
    keep their current values. At least one field is always present
    (an empty patch fails to decode). *)

type session_op =
  | Op_add of int  (** rank to add *)
  | Op_remove of int  (** rank to remove *)
  | Op_size of int  (** new size bound *)
  | Op_params of params_patch

(** Decode failures split by blame: [Malformed] (HTTP 400) means the body
    itself is broken — wrong types, missing fields, an empty patch;
    [Unprocessable] (422) means a well-formed body asks for something the
    service rejects — an unknown measure or op name, a negative weight or
    threshold. *)
type op_error = Malformed of string | Unprocessable of string

val status_of_op_error : op_error -> int
val message_of_op_error : op_error -> string

val code_of_op_error : op_error -> string
(** ["malformed"] / ["unprocessable"] — the machine-readable code of the
    uniform error envelope (see {!error_body}). *)

val decode_params_patch : Json.t -> (params_patch, op_error) result
(** Decode ["threshold_pct"] / ["measure"] / ["weights"] — each optional,
    at least one required. Rejects negative thresholds, unknown measures
    and negative weights as [Unprocessable], and a non-finite threshold
    as [Malformed]. *)

val decode_ops : Json.t -> (session_op list, op_error) result
(** Decode the ["ops"] list of an apply body. Each element carries a
    string ["op"] of ["add"] (with ["rank"]), ["remove"] (with ["rank"]),
    ["size"] (with ["size_bound"]) or ["params"] (patch fields inline,
    next to ["op"]). The list must be non-empty. *)

val decode_single_op : op:string -> Json.t -> (session_op, op_error) result
(** Decode one op of the named kind from a bare body (no ["op"] member —
    the kind comes from the route). [POST /session/:id/add] with
    [{"rank": 4}] is exactly the ["ops"] element [{"op": "add", "rank": 4}];
    the single-op endpoints are wrappers over the apply path. *)

val translate_ops :
  request:compare_request ->
  ranks:int list ->
  available:int ->
  profile_of:(int -> Result_profile.t) ->
  config_of:(compare_request -> Config.t) ->
  session_op list ->
  ( Session.op list * int list * compare_request,
    [ `Op of op_error | `Core of Error.t ] )
  result
(** The single rank-addressing/validation routine behind every mutation
    endpoint. Translates rank-addressed {!session_op}s into
    index-addressed {!Session.op}s against the {e evolving} selection
    [ranks] (of a comparison over [available] ranked results), folding
    params patches into the evolving [request]. Returns the session ops,
    the post-batch selection and the post-batch request. Rejects a
    duplicate or absent rank as [`Op Unprocessable] (422) and an
    out-of-range rank as [`Core Rank_out_of_range]; any rejection leaves
    the caller's state untouched (nothing is applied here).
    [profile_of rank] extracts the profile of a rank already checked to
    be in range; [config_of] maps the evolving request to the config
    whose params/weighting a [Reparams] op carries. *)

val apply_patch : compare_request -> params_patch -> compare_request
(** Fold a patch into the request a session was created from, so the
    journaled recipe, the cache keys and the rebuilt config stay honest
    after a params change. *)

val status_of_error : Error.t -> int
(** [No_results] → 404; everything else (a well-formed request the corpus
    can't satisfy) → 422. Malformed JSON is the caller's 400. *)

val code_of_error : Error.t -> string
(** The stable machine-readable code of each {!Error.t} variant:
    ["no_results"], ["too_few_selected"], ["rank_out_of_range"],
    ["index_out_of_range"], ["bound_too_small"],
    ["unsupported_algorithm"], ["timeout"]. Clients branch on codes;
    message text is free to change. *)

(** {1 Response encoders} — deterministic field order, so cached bodies
    are byte-stable. *)

val error_body : code:string -> string -> string
(** The uniform error envelope every endpoint answers errors with:
    [{"error": {"code": code, "message": msg}}]. Codes are
    {!code_of_error} / {!code_of_op_error} values for typed errors, and a
    fixed serve-level vocabulary otherwise ("bad_request",
    "unknown_dataset", "unknown_session", "not_found",
    "method_not_allowed", "unavailable", "overloaded", "refused",
    "internal"). HTTP statuses are unchanged by the envelope. *)

val json_of_results : (Search.result * string) list -> Json.t
(** Ranked search results with their display titles. *)

val json_of_table : Table.t -> Json.t
val json_of_comparison : Pipeline.comparison -> Json.t
