(** Multi-swap-optimal DFS generation via dynamic programming.

    The paper: "A set of DFSs is multi-swap optimal if, by making changes to
    any number of features in a DFS, while keeping its validity and size
    limit bound, the degree of differentiation cannot increase. [...] We
    proposed a dynamic programming algorithm to achieve it efficiently."

    Realized here as iterated exact best responses. With all other DFSs
    fixed, the contribution of result [i]'s DFS to the total DoD decomposes
    additively over feature types, and each type's gain is a monotone step
    function of its selected-prefix length (see {!Dod.threshold_q}). The
    optimal valid DFS for [i] then falls to a three-level DP:

    + within a significance class: a knapsack over the class's types,
      choosing a feature-prefix length per type (variant A: any subset of
      types; variant B: every type selected, for classes that must be fully
      included before a lower class opens);
    + across the classes of one entity: a full-prefix-of-classes recursion —
      either the current class is the last one touched (variant A), or it is
      fully included (variant B) and the recursion continues below;
    + across entities: a knapsack allocating the size budget [L].

    Applying best responses round-robin strictly increases the total DoD
    until a fixpoint, which is by construction multi-swap optimal (no
    reshaping of any single DFS can improve it). *)

type stats = {
  iterations : int;  (** adopted best responses *)
  rounds : int;  (** full passes over the results *)
  converged : bool;
      (** [true]: reached the multi-swap fixpoint; [false]: the deadline
          tripped first and the output is the (valid) best-so-far *)
}

val compute_curves : Dod.context -> Dfs.t array -> int -> int array array
(** [compute_curves context dfss i] is, per type [gi] of result [i], the
    cumulative gain curve [c]: for every prefix length [q] from 0 to the
    type's feature count, [c.(q)] is the number of linked pairs
    differentiable on the type at [q] given the other results' current
    selections — the links whose {!Dod.threshold_q} is at most [q]. These
    are the per-type gain curves the DP maximizes over, built in one
    bucket pass over the links. Depends only on the {e other} results'
    DFSs, not on the weights or the spread tie-break. *)

val best_response :
  ?spread:bool -> ?curves:int array array -> Dod.context -> limit:int ->
  Dfs.t array -> int -> Dfs.t
(** [best_response context ~limit dfss i] is an optimal valid DFS for result
    [i] holding the other DFSs fixed. DoD ties are resolved toward more
    distinct selected types, preferring types more of the other results
    share (then toward fewer features): at zero cost, a response "spreads"
    over types the others can align on, which is what lets iterated
    responses escape the poor equilibria of pure best-response dynamics on
    corpora whose significances are all tied (see the implementation comment
    on the packed potential Φ; termination is still guaranteed). Exposed for
    tests, which compare its packed gain against exhaustive enumeration.

    The curves are turned into a table of packed gains per (type, prefix
    length) once per call; every knapsack cell then reads one entry.
    [curves] supplies precomputed curves (from {!compute_curves} against
    the same [dfss]); without it they are recomputed. *)

val generate :
  ?init:Dfs.t array -> ?spread:bool -> ?deadline:Xsact_util.Deadline.t ->
  Dod.context -> limit:int -> Dfs.t array
(** Iterate best responses from {!Topk.generate} (or [init]) to a multi-swap
    optimum. [spread] (default [true]) enables the type-spreading
    tie-break; disabling it is the coordination ablation DESIGN.md calls
    out.

    [deadline] makes the iteration anytime: the token is polled before
    every best response, and once it trips the current configuration —
    valid after every adopted response — is returned as is with
    [converged = false] in the stats. A run whose deadline never trips is
    bit-identical to an undeadlined run. Carries the ["compare.round"]
    {!Xsact_util.Failpoint} at every round start.

    Every best response computes its curves once ({!compute_curves});
    nothing is kept across responses. *)

val generate_with_stats :
  ?init:Dfs.t array -> ?spread:bool -> ?deadline:Xsact_util.Deadline.t ->
  Dod.context -> limit:int -> Dfs.t array * stats
