(** Differentiation Feature Sets (DFSs).

    A DFS over a {!Result_profile.t} is represented as a vector [q] giving,
    for each feature type (by global index), how many of that type's
    features are selected — always the prefix of the type's canonical
    count-descending order. Desiderata 1 and 2 of the paper become:

    - {b size}: [size d <= limit];
    - {b validity}: within each entity, the set of types with [q > 0] is
      downward-closed under strict significance dominance — a type may be
      selected only if every strictly more significant type of the same
      entity is selected too. Equally significant types are free. *)

type t
(** Immutable by convention; algorithms copy before mutating. *)

val empty : Result_profile.t -> t
(** All-zero selection. *)

val profile : t -> Result_profile.t

val q : t -> int -> int
(** Selected feature count of a global type index. *)

val set_q : t -> int -> int -> t
(** Functional update; no legality check beyond array bounds and
    [0 <= q <= #features]. @raise Invalid_argument otherwise. *)

val size : t -> int
(** Total number of selected features (|D|). *)

val selected_types : t -> int list
(** Global indices with [q > 0], ascending. *)

val features : t -> (Feature.t * int) list
(** The selected features with their counts, grouped by type in canonical
    order. *)

val is_valid : limit:int -> t -> bool
(** Size bound + downward closure (see above). *)

val can_open : t -> int -> bool
(** [can_open d gi] — is setting [q gi] from 0 to 1 closure-legal? (Every
    strictly more significant type of the same entity already selected.)
    True also when [q gi > 0] already. *)

val can_close : t -> int -> bool
(** [can_close d gi] — is setting [q gi] to 0 closure-legal? (No strictly
    less significant type of the same entity selected.) True also when
    [q gi = 0] already. *)

val max_q : t -> int -> int
(** Number of features available in that type. *)

val of_q_array : Result_profile.t -> int array -> t
(** Adopt an explicit vector (copied). @raise Invalid_argument on length or
    range mismatch. *)

val to_q_array : t -> int array
(** A fresh copy of the selection vector. *)

val equal : t -> t -> bool
(** Same profile (physically) and same selection. *)

