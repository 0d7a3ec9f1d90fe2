(** Benchmark workloads: datasets + query sets turned into ready-to-run
    comparison instances. Shared by the benches, integration tests and
    examples so every consumer measures exactly the same inputs. *)

type instance = {
  label : string;  (** query label, e.g. ["QM3"] *)
  keywords : string;
  result_count : int;  (** results the query returned *)
  profiles : Result_profile.t array;  (** the compared subset, extracted *)
}

val instances :
  ?top:int ->
  ?lift_to:string ->
  Pipeline.t ->
  (string * string) list ->
  instance list
(** Run each [(label, keywords)] query and extract the [top] (default 5)
    first results. Queries yielding fewer than two results are dropped. *)

type prepared = {
  dataset : Xsact_dataset.Dataset.t;
  pipeline : Pipeline.t;
  queries : instance list;
}

val prepare : ?top:int -> ?lift_to:string -> Xsact_dataset.Dataset.t -> prepared
(** Index the dataset and materialize its demo query workload. *)

val imdb_qm : ?movies:int -> ?top:int -> unit -> prepared
(** The Figure 4 workload: the IMDB corpus (default size) and queries
    QM1..QM8, [top] (default 5) results each. *)

val paper_gps_profiles : unit -> Result_profile.t array
(** The two GPS results of the paper's running example: the exact Figure 1
    statistics (11 vs 68 reviews, easy-to-read 10, compact 8 vs 38,
    satellites 44, ...) plus a plausible low-count tail standing in for the
    "..." rows of the figure (without which the two results share too few
    feature types for the Figure 2 comparison to reach the paper's DoD).
    Used by the Figure 1/2 reproduction benches. *)

val synthetic_profiles :
  seed:int ->
  results:int ->
  entities:int ->
  types_per_entity:int ->
  values_per_type:int ->
  max_count:int ->
  Result_profile.t array
(** Random small instances for optimality/property experiments: [results]
    profiles sharing a universe of [entities * types_per_entity] feature
    types with up to [values_per_type] values each and counts in
    [1..max_count]; each profile drops each type with probability 1/4 so
    type sets overlap but differ. Deterministic in [seed]. *)
