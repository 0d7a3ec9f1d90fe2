type t = {
  params : Dod.params;
  weight : Feature.ftype -> int;
  algorithm : Algorithm.t;
  domains : int option;
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

let with_domains domains t =
  if domains < 1 then
    invalid_arg "Config.with_domains: domain count must be positive";
  { t with domains = Some domains }

let with_incremental incremental t = { t with incremental }
