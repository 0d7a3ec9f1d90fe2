type t =
  | Topk
  | Greedy
  | Single_swap
  | Multi_swap
  | Annealing
  | Restarts
  | Exhaustive

let all =
  [ Topk; Greedy; Single_swap; Multi_swap; Annealing; Restarts; Exhaustive ]

let practical = [ Topk; Greedy; Single_swap; Multi_swap; Annealing; Restarts ]

let to_string = function
  | Topk -> "topk"
  | Greedy -> "greedy"
  | Single_swap -> "single-swap"
  | Multi_swap -> "multi-swap"
  | Annealing -> "annealing"
  | Restarts -> "restarts"
  | Exhaustive -> "exhaustive"

let of_string = function
  | "topk" -> Some Topk
  | "greedy" -> Some Greedy
  | "single-swap" -> Some Single_swap
  | "multi-swap" -> Some Multi_swap
  | "annealing" -> Some Annealing
  | "restarts" -> Some Restarts
  | "exhaustive" -> Some Exhaustive
  | _ -> None

(* [domains] is ignored; it stays only for e2ebench/replay.ml. *)
let generate_within ?domains:_ ?deadline t context ~limit =
  match t with
  | Topk -> (Topk.generate context ~limit, `Complete)
  | Greedy -> Greedy.generate_within ?deadline context ~limit
  | Single_swap ->
    let dfss, stats =
      Single_swap.generate_with_stats ?deadline context ~limit
    in
    (dfss, if stats.Single_swap.converged then `Complete else `Degraded)
  | Multi_swap ->
    let dfss, stats =
      Multi_swap.generate_with_stats ?deadline context ~limit
    in
    (dfss, if stats.Multi_swap.converged then `Complete else `Degraded)
  | Annealing -> Stochastic.anneal_within ?deadline context ~limit
  | Restarts -> Stochastic.restarts_within ?deadline context ~limit
  | Exhaustive -> (Exhaustive.generate context ~limit, `Complete)

let generate t context ~limit = fst (generate_within t context ~limit)
