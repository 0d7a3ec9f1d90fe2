(** Smallest Lowest Common Ancestor computation.

    The match semantics XSeek [3,4] builds on: a node is an LCA candidate if
    its subtree contains at least one direct match of every query keyword; it
    is a {e smallest} LCA (SLCA) if additionally no proper descendant is
    itself an LCA candidate. Two independent implementations are provided —
    the production one (a single pass over the keywords' posting lists,
    merged in document order, keeping a stack of keyword masks along the
    current root path) and a Dewey-merge one in the style of Xu &
    Papakonstantinou's indexed lookup, kept as an oracle for property tests.

    The production pass gives each keyword one bit of an [int] mask, so
    {!by_aggregation}, {!lca_candidates} and {!elca} take at most
    {!max_keywords} keywords and raise [Invalid_argument] above that. A
    keyword listed twice takes two bits and matches as one. *)

val max_keywords : int
(** [Sys.int_size] (63 on 64-bit hosts): the most keywords one query may
    hold. *)

val by_aggregation : Index.t -> string list -> int list
(** Ascending ids of the SLCAs of the keywords' match lists. Keywords with
    empty posting lists make the result empty (conjunctive semantics). An
    empty keyword list yields [].

    Cost: O(P × (k + d)) time for [k] keywords with [P] postings in total
    over a tree of depth [d], plus O(d) words of stack; nothing proportional
    to the corpus size. *)

val by_merge : Index.t -> string list -> int list
(** Same contract, computed via Dewey-label binary searches. *)

val lca_candidates : Index.t -> string list -> int list
(** Ascending ids of {e all} LCA candidates (every node whose subtree covers
    all keywords). Tests use it to check SLCA minimality and the
    SLCA ⊆ ELCA ⊆ candidates chain. Same pass and cost as
    {!by_aggregation}, plus sorting the candidates. *)

val elca : Index.t -> string list -> int list
(** Exclusive LCAs (XRank semantics): [v] is an ELCA iff every keyword has a
    witness match inside [v]'s subtree that does not sit inside any
    descendant LCA candidate. Every SLCA is an ELCA; an ELCA may additionally
    own matches "of its own" above nested results (e.g. a department node
    naming a keyword that also appears in each of its employees). Ascending
    ids; same conjunctive contract, pass and cost as {!by_aggregation}, plus
    sorting the ELCAs. *)
