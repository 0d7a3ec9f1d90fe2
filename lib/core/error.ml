type t =
  | No_results of string
  | Too_few_selected of int
  | Rank_out_of_range of { rank : int; available : int }
  | Index_out_of_range of { index : int; length : int }
  | Bound_too_small of int
  | Unsupported_algorithm of string
  | Timeout

let to_string = function
  | No_results keywords -> Printf.sprintf "no results for %S" keywords
  | Too_few_selected n ->
    Printf.sprintf "need at least two results to compare (have %d)" n
  | Rank_out_of_range { rank; available } ->
    Printf.sprintf "rank %d out of range (have %d results)" rank available
  | Index_out_of_range { index; length } ->
    Printf.sprintf "index %d out of range (have %d results)" index length
  | Bound_too_small bound ->
    Printf.sprintf "size bound must be at least 1 (got %d)" bound
  | Unsupported_algorithm name ->
    Printf.sprintf "algorithm %s is not supported by this operation" name
  | Timeout -> "deadline exceeded before any complete comparison was available"
