(** Inverted index over a {!Doctree}.

    Maps each token to the ascending list of element ids that contain it
    directly (in tag name, immediate text, or attribute values). Subtree
    containment is recovered at query time via {!Doctree.subtree_end}
    intervals, so the index stays linear in corpus size. *)

type t

val build : Doctree.t -> t
(** One pass over the node table. *)

val doctree : t -> Doctree.t

val postings : t -> string -> int array
(** Ascending ids of nodes directly containing the token; [[||]] for unknown
    tokens. The returned array is shared — do not mutate. *)

val doc_frequency : t -> string -> int
(** [Array.length (postings t tok)]. *)

val vocabulary_size : t -> int

val total_postings : t -> int
(** Sum of posting-list lengths (index size measure for benches). *)
