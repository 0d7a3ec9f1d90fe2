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

(** {1 Symbols}

    Every entity tag, attribute path and value string has an integer id
    in one process-wide table, so profiles built by different paths — the
    corpus scan, {!Result_profile.make} from a hand-built bag —
    give equal strings equal ids and compare by [int]. Ids are dense in
    insertion order: they say nothing about string order, differ between
    processes, and are never persisted. *)

val symbol : string -> int
(** The id of a string, inserted on first sight. Thread-safe: inserts
    run under one mutex. The table only grows; it holds each distinct
    string once. *)
