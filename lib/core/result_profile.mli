(** A search result, preprocessed for DFS construction.

    The raw material is a bag of features with occurrence counts plus the
    population of each entity (e.g. "# of reviews: 11" in Figure 1). This
    module freezes them into the canonical shape every algorithm works over:

    - features grouped by feature type, each type's features sorted by count
      descending (value ascending on ties) — within a type, a DFS always
      selects a {e prefix} of this order;
    - types grouped by entity and sorted by {b significance} descending
      (attribute ascending on ties), where significance of a type is the
      {e largest} occurrence count among its features. Validity
      (Desideratum 2) is downward closure w.r.t. {e strict} significance
      dominance, so equally-significant types remain freely choosable — this
      tie freedom is where the optimization problem lives (see DESIGN.md);
    - types of one entity partitioned into maximal runs of equal
      significance ({e classes}), the unit the multi-swap DP walks.

    Using the max feature count (rather than the type's total) as
    significance agrees with the paper on the boolean feature types of
    Figure 1 (one feature per type) and keeps identifier-like types — a
    reviewer nickname occurring once per review — from crowding out the
    meaningful opinion statistics. *)

type feat_info = {
  feature : Feature.t;
  count : int;
  value_id : int;
      (** {!Feature.symbol} of the value: within its type, the feature's
          identity *)
}

type type_info = {
  ftype : Feature.ftype;
  type_id : int;
      (** {!type_key} of the entity's and the attribute's symbols: equal
          across every profile of the process iff the [ftype]s are *)
  significance : int;  (** max feature count within the type *)
  total : int;  (** sum of feature counts *)
  features : feat_info array;  (** count desc, value asc *)
  counts : int array;
      (** [[| value_id; count; ... |]], ascending by [value_id]: the
          lookup {!count_of} searches *)
}

type entity_info = {
  entity : string;
  population : int;  (** instances of this entity in the result; >= 1 *)
  types : type_info array;  (** significance desc, attribute asc *)
  classes : (int * int) array;
      (** [(start, len)] runs of equal significance covering [types] *)
}

type t = {
  label : string;  (** display name, e.g. the product name *)
  entities : entity_info array;  (** entity name asc *)
  type_index : (int * int) array;
      (** global type index -> (entity index, index within entity) *)
  total_features : int;
  by_name : int array;
      (** global type indices in (entity, attribute) string order — the
          order {!Dod} emits a pair's shared types in *)
  by_type_id : int array;
      (** [[| type_id; global index; ... |]], ascending by [type_id]: what
          {!Dod} merges to find the types two results share *)
}

val make :
  label:string ->
  populations:(string * int) list ->
  (Feature.t * int) list ->
  t
(** [make ~label ~populations features] builds the profile. Duplicate
    features in the list have their counts summed. Entities appearing in
    features but missing from [populations] get population 1. The
    strings are interned with {!Feature.symbol}, so a profile made here
    and one the corpus scan built carry the same ids for the same
    strings and can share a {!Dod.context}.
    @raise Invalid_argument on non-positive counts or populations. *)

val type_key : entity:int -> attribute:int -> int
(** The [type_id] of the type with these entity and attribute symbols. *)

val canonical :
  label:string ->
  population:(int -> int) ->
  type_ids:int array ->
  feat_info array ->
  t
(** The canonicalisation {!make} and {!Extractor.scan} share.
    [feats] must be distinct features sorted by (entity, attribute,
    value) in string order; [type_ids.(k)] is the {!type_key} of
    [feats.(k)]'s type, and [population k] the population of its entity,
    asked once per entity, at its first feature. Types are sorted by
    significance, features by count, both stably, so the string order
    breaks the ties. *)

(** {1 Accessors by global type index} *)

val num_types : t -> int
val type_info : t -> int -> type_info
val entity_index_of_type : t -> int -> int

val find_type : t -> Feature.ftype -> int option
(** Global index of a feature type, if the result has it. *)

val count_of : type_info -> int -> int
(** Count of the feature with this [value_id] in the type, or 0. *)

val type_population : t -> int -> int
(** Population of the entity that type [gi] belongs to. *)

val population : t -> string -> int
(** Population of an entity tag (1 if unknown). *)

val global_index : t -> entity_index:int -> type_index:int -> int
(** Inverse of {!type_index}. *)

val types_seq : t -> (int * type_info) Seq.t
(** All types with their global indices, in global order. *)
