(** End-to-end XSACT pipeline (Figure 3): keyword search → result selection
    → entity/feature extraction → DFS generation → comparison table. *)

type t
(** An indexed corpus ready for search-and-compare: the search engine and
    the corpus's extraction columns ({!Extractor.columns}). *)

val create : Xml.document -> t
(** Index the corpus, then run the boot pass that fills its extraction
    columns. *)

val of_element : Xml.element -> t

val engine : t -> Search.engine

val search : ?limit:int -> ?lift_to:string -> t -> string -> Search.result list
(** Plain keyword search (see {!Xsact_search.Search.query}). *)

val profile_of :
  ?prune:Result_builder.mode -> ?keywords:string -> t -> Search.result ->
  Result_profile.t
(** Extract one result's feature profile. Under [prune = Full] (the
    default) this is {!Extractor.scan} of the result's id interval; other
    modes apply the XSeek-style return policy first and walk the pruned
    tree with {!Extractor.extract}. [Matched_entities] requires the query
    [keywords]. *)

type comparison = {
  keywords : string;
  profiles : Result_profile.t array;  (** the compared results, in order *)
  context : Dod.context;
      (** the precomputed pair tables the DFSs were generated from —
          returned so callers (the server's context cache) can reuse them
          for later requests over the same result set *)
  dfss : Dfs.t array;
  dod : int;  (** total DoD of the generated DFSs *)
  table : Table.t;
  algorithm : Algorithm.t;
  size_bound : int;
  elapsed_s : float;  (** DFS generation time (excludes search) *)
  degraded : bool;
      (** [true] iff a deadline tripped mid-generation and the table is the
          algorithm's (valid, budget-filling) best-so-far rather than its
          converged output. Always [false] without a deadline. *)
}

val compare :
  ?config:Config.t ->
  ?deadline:Xsact_util.Deadline.t ->
  ?lift_to:string ->
  ?prune:Result_builder.mode ->
  ?select:int list ->
  ?top:int ->
  t ->
  keywords:string ->
  size_bound:int ->
  (comparison, Error.t) result
(** Search, pick results, and build the comparison.

    - [config] (default {!Config.default}) carries the differentiation
      parameters, interestingness weighting and generation algorithm —
      see {!Config}.
    - [deadline]: a cooperative time/cancellation budget over context
      construction and DFS generation. If it trips during generation the
      comparison still succeeds with [degraded = true] (anytime
      best-so-far); if it trips before any complete result is available
      (during context construction, which is all-or-nothing) the result is
      [Error Timeout]. A run whose deadline never trips is bit-identical
      to a deadline-free run.
    - [select]: 1-based ranks of the results to compare (the demo's
      checkboxes); default: the [top] first results ([top] defaults to 4).
    - Errors: [No_results], [Too_few_selected], [Rank_out_of_range],
      [Bound_too_small], [Timeout] (see {!Error}). *)

val compare_profiles :
  ?config:Config.t ->
  ?deadline:Xsact_util.Deadline.t ->
  ?context:Dod.context ->
  keywords:string ->
  size_bound:int ->
  Result_profile.t array ->
  (comparison, Error.t) result
(** Same, starting from already-extracted profiles (used by benches and by
    callers that assemble results by hand). A warm [context] — e.g. one a
    previous comparison over the same profiles returned — skips the pair
    table build entirely; it must have been built over exactly these
    profiles with the same params/weighting ([Invalid_argument] on an
    arity mismatch; the rest is the caller's contract). *)
