(** Result processor: entity identifier + feature extractor (Figure 3).

    Turns one search-result subtree into a {!Result_profile.t}:

    - every element whose tag the corpus-wide {!Xsact_search.Node_category}
      inference classifies as an {e entity} starts a new entity scope and
      bumps that entity's population;
    - {e connection} elements are transparent;
    - every top-most {e attribute} element yields one feature attached to
      the nearest enclosing entity. Wrapper chains are flattened: an
      attribute element without text but with a single element child extends
      the attribute path with the child's tag ([pro]/[compact]/"yes" →
      attribute ["pro:compact"], value ["yes"]). Valueless presence flags
      get value ["yes"]; XML attributes yield features named ["tag@attr"].

    Occurrences of the same (entity, attribute, value) accumulate into the
    feature's count — e.g. 8 of 11 reviews saying yes to [pro:compact]
    produce count 8 against the review entity's population 11, matching the
    Figure 1 statistics. *)

val extract :
  categories:Node_category.t -> label:string -> Xml.element -> Result_profile.t
(** [extract ~categories ~label root] processes the subtree under [root].
    [root] itself is always treated as an entity (it is the unit of
    comparison), whatever its inferred category. A result without any
    extractable feature falls back to the single feature
    [(root-tag, "text", text content)]. *)

(** {1 The corpus scan}

    The same rules over integer columns a corpus fills once, at boot.
    {!extract} stays as the oracle the scan is tested against, and as the
    only path for {!Xsact_search.Result_builder}'s pruned trees, which are
    not corpus subtrees. *)

type columns
(** Per-node columns of one corpus: each node's tag and, for attribute
    nodes, its flattened (path, value) key, as ranks in string order of
    the corpus's own tags and keys, packed into one [int]; plus those
    strings and their {!Feature.symbol}s. About one word per node. *)

val columns : Search.engine -> columns
(** The boot pass: one sweep of the engine's node table. *)

val scan : columns -> label:string -> int -> Result_profile.t
(** [scan cols ~label root] is [extract ~categories ~label] of node
    [root]'s element, computed from the pre-order id interval
    [\[root, Doctree.subtree_end root)] alone: no DOM walk, no string
    compares, and feature ids read from the columns. Only a result with no
    features reads the tree, for its text fallback. *)
