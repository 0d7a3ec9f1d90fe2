(** The unified comparison configuration.

    {!Pipeline.compare}, {!Pipeline.compare_profiles} and {!Session.create}
    all take one [?config:Config.t], built from {!default} in a
    functional-update style:

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
      (** ignored; kept only because e2ebench/replay.ml reads it *)
  incremental : bool;
      (** maintain session contexts by delta ({!Dod.rearrange}: cached
          pair tables reused, only the missing pairs computed, the link
          table replayed once) instead of full rebuilds. Output is
          bit-identical either way —
          this is a cost knob (and the ablation lever for benchmarks),
          not a semantics knob. *)
}

val default : t
(** The paper's setting: {!Dod.default_params}, uniform weighting,
    [Multi_swap], delta maintenance on. *)

val with_params : Dod.params -> t -> t
val with_weight : (Feature.ftype -> int) -> t -> t
val with_algorithm : Algorithm.t -> t -> t

val with_incremental : bool -> t -> t
(** Toggle delta maintenance of session contexts (default [true]). *)
