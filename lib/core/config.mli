(** The unified comparison configuration.

    {!Pipeline.compare}, {!Pipeline.compare_profiles} and {!Session.create}
    used to re-declare the same [?params ?weight ?algorithm ?domains]
    optional arguments — inconsistently ([Session.create] silently dropped
    [?domains]). They now all take one [?config:Config.t], built from
    {!default} in a functional-update style:

    {[
      let config =
        Config.default
        |> Config.with_algorithm Algorithm.Single_swap
        |> Config.with_weight (Weighting.by_attribute [ ("price", 3) ])
    ]} *)

type t = {
  params : Dod.params;  (** differentiation threshold and measure *)
  weight : Feature.ftype -> int;  (** interestingness weighting *)
  algorithm : Algorithm.t;  (** DFS generation method *)
  domains : int option;
      (** domain-pool parallelism; [None] defers to
          {!Xsact_util.Domain_pool.default_domains}. Output is identical
          for every value, so no user-facing surface sets it; tests pin
          it to prove that. *)
  incremental : bool;
      (** maintain session contexts by delta ({!Dod.apply} — surgical
          add/remove, coalesced op batches, and in-place reparams)
          instead of full rebuilds. Output is bit-identical either way —
          this is a cost knob (and the ablation lever for benchmarks),
          not a semantics knob. *)
}

val default : t
(** The paper's setting: {!Dod.default_params}, uniform weighting,
    [Multi_swap], hardware-default parallelism. *)

val with_params : Dod.params -> t -> t
val with_weight : (Feature.ftype -> int) -> t -> t
val with_algorithm : Algorithm.t -> t -> t

val with_domains : int -> t -> t
(** Pin the domain count. @raise Invalid_argument if not positive. *)

val with_incremental : bool -> t -> t
(** Toggle delta maintenance of session contexts (default [true]). *)
