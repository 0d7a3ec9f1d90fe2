(** Features and feature types — the paper's data model (Section 2).

    A {b feature} is a triplet [(entity, attribute, value)], e.g.
    [(product, name, "TomTom Go 630")] or [(review, pro:compact, "yes")];
    a {b feature type} is its [(entity, attribute)] pair. Entities and
    attributes are the tag-derived names the {!Extractor} infers; nested
    wrapper tags are flattened into colon-joined attribute paths (Figure 1's
    [pro] → [compact] → [yes] becomes attribute ["pro:compact"], value
    ["yes"]). *)

type ftype = { entity : string; attribute : string }

type t = { ftype : ftype; value : string }

val make : entity:string -> attribute:string -> value:string -> t

val ftype : t -> ftype

val compare_ftype : ftype -> ftype -> int
(** Lexicographic on (entity, attribute). *)

val compare : t -> t -> int
(** Lexicographic on (entity, attribute, value). *)

val equal : t -> t -> bool
val equal_ftype : ftype -> ftype -> bool

val ftype_to_string : ftype -> string
(** ["entity.attribute"]. *)

val to_string : t -> string
(** ["entity.attribute = value"]. *)


module Ftype_map : Map.S with type key = ftype
module Map : Map.S with type key = t
