type t = {
  params : Dod.params;
  weight : Feature.ftype -> int;
  algorithm : Algorithm.t;
  domains : int option;  (* ignored; kept only for e2ebench/replay.ml *)
  incremental : bool;
}

let default =
  {
    params = Dod.default_params;
    weight = Weighting.uniform;
    algorithm = Algorithm.Multi_swap;
    domains = None;
    incremental = true;
  }

let with_params params t = { t with params }
let with_weight weight t = { t with weight }
let with_algorithm algorithm t = { t with algorithm }

let with_incremental incremental t = { t with incremental }
