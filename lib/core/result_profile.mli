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

type feat_info = { feature : Feature.t; count : int }

type type_info = {
  ftype : Feature.ftype;
  significance : int;  (** max feature count within the type *)
  total : int;  (** sum of feature counts *)
  features : feat_info array;  (** count desc, value asc *)
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
}

val make :
  label:string ->
  populations:(string * int) list ->
  (Feature.t * int) list ->
  t
(** [make ~label ~populations features] builds the profile. Duplicate
    features in the list have their counts summed. Entities appearing in
    features but missing from [populations] get population 1.
    @raise Invalid_argument on non-positive counts or populations. *)

(** {1 Accessors by global type index} *)

val num_types : t -> int
val type_info : t -> int -> type_info
val entity_index_of_type : t -> int -> int

val find_type : t -> Feature.ftype -> int option
(** Global index of a feature type, if the result has it. *)

val population : t -> string -> int
(** Population of an entity tag (1 if unknown). *)

val global_index : t -> entity_index:int -> type_index:int -> int
(** Inverse of {!type_index}. *)

val types_seq : t -> (int * type_info) Seq.t
(** All types with their global indices, in global order. *)
