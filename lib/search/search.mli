(** Keyword search over an XML corpus — the XSeek-style engine XSACT sits on.

    Query processing: normalize the keywords, look up their posting lists,
    compute SLCAs, lift each SLCA to the nearest enclosing entity node (the
    "meaningful return information" step of XSeek [3]), deduplicate, rank,
    and return the entity subtrees as results. *)

type engine
(** A corpus loaded and indexed, ready to serve queries. *)

type result = {
  rank : int;  (** 1-based position in the ranked list *)
  node_id : int;  (** id of the returned entity node *)
  dewey : Dewey.t;
  element : Xml.element;  (** the full result subtree *)
  score : float;  (** ranking score (higher is better) *)
  slca_ids : int list;  (** the SLCA witnesses this result was lifted from *)
}

val create : Xml.document -> engine
(** Build the doctree, the inverted index and the node-category table. *)

val of_element : Xml.element -> engine

val doctree : engine -> Doctree.t
val index : engine -> Index.t
val categories : engine -> Node_category.t

type semantics = Slca | Elca
(** Match semantics: smallest LCAs (default) or exclusive LCAs, which may
    additionally return ancestors owning witnesses of their own above
    nested results. *)

type scoring =
  | Occurrence  (** total keyword occurrences, damped by subtree size *)
  | Tf_idf
      (** occurrences weighted by inverse document frequency: results
          matching the query's {e rare} keywords strongly outrank those
          padding on common ones *)

val query :
  ?limit:int ->
  ?lift_to:string ->
  ?semantics:semantics ->
  ?scoring:scoring ->
  engine ->
  string ->
  result list
(** [query engine keywords] runs the full pipeline on the whitespace-
    separated keyword string. Results are ranked by score (descending), ties
    broken by document order; [limit] truncates the list (default: all). An
    unmatched keyword yields [] (conjunctive semantics).

    Cost: the SLCA pass follows the keywords' posting lists, not the corpus
    (see {!Slca.by_aggregation}); lifting, deduplication and ranking then
    cost O(c × (d + log c)) for [c] SLCAs in a tree of depth [d], plus the
    binary searches of scoring.

    @raise Invalid_argument when the normalized query holds more than
    {!Slca.max_keywords} distinct keywords (one mask bit each). Callers
    that take queries from outside check the bound first.

    [lift_to] overrides the entity-lifting step: each SLCA is lifted to its
    nearest ancestor-or-self with that tag instead (falling back to entity
    lifting when no such ancestor exists). This models the demo's coarser
    comparison granularities — e.g. comparing {e brands} on the Outdoor
    Retailer dataset while the SLCAs land on individual products. *)

val result_title : engine -> result -> string
(** Snippet-line title for a result: the text of its first attribute-ish
    child (e.g. the product name), or its tag if none. *)
