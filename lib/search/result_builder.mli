(** Result subtree construction policies (XSeek's "return information").

    XSACT compares whatever subtree the search engine returns, and what that
    subtree should contain is a semantics decision XSeek [3] studies: the
    whole entity, only the parts related to the query, or just the entity's
    own attributes. Three policies are provided:

    - {!Full}: the entire entity subtree — the demo's default (a product
      result keeps all of its hundreds of reviews);
    - {!Matched_entities}: nested entity instances are kept only when their
      subtree contains {e all} query keywords; attributes and connection
      structure are always kept. Comparing brands for "men jackets" under
      this policy contrasts the brands' {e matching products} (their men's
      jackets) rather than their whole catalogs;
    - {!Attributes_only}: only the entity's attribute children (transitively
      through connection nodes); nested entities are dropped entirely — a
      head-matter summary view. *)

type mode = Full | Matched_entities | Attributes_only

val mode_of_string : string -> mode option
(** ["full"], ["matched"], ["attributes"]. *)

val matches : keywords:string list -> Xml.element -> bool
(** Does the subtree contain {e every} one of the (already-normalized)
    keywords — in tag names, text, or attribute values? Conjunctive, like
    the engine's match semantics. [false] for an empty keyword list.
    Exposed for tests. *)

val prune :
  categories:Node_category.t ->
  keywords:string list ->
  mode ->
  Xml.element ->
  Xml.element
(** Rebuild the result subtree under the given policy. [Full] is the
    identity. The root element itself is never dropped. Under
    [Matched_entities], if {e no} nested entity matches (the keywords all
    sit in the entity's own attributes), the result keeps all nested
    entities — an empty comparison profile would be strictly less useful
    than the full one. *)
