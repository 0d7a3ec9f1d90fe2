(** Uniform dispatch over the DFS generation methods. *)

type t =
  | Topk  (** snippet-style greedy by count, no cross-result awareness *)
  | Greedy  (** global marginal-gain greedy *)
  | Single_swap  (** hill climbing over single-feature moves *)
  | Multi_swap  (** iterated exact best responses (dynamic programming) *)
  | Annealing  (** simulated annealing + polish (fixed seed) *)
  | Restarts  (** random-restart hill climbing (fixed seed) *)
  | Exhaustive  (** brute-force optimum; tiny instances only *)

val all : t list
(** In the order above. *)

val practical : t list
(** Everything except [Exhaustive]. *)

val to_string : t -> string
(** Registry key: ["topk"], ["greedy"], ["single-swap"], ["multi-swap"],
    ["annealing"], ["restarts"], ["exhaustive"]. *)

val of_string : string -> t option

val generate : t -> Dod.context -> limit:int -> Dfs.t array
(** Run the method. [Exhaustive] may raise {!Exhaustive.Too_large}. *)

val generate_within :
  ?domains:int -> ?deadline:Xsact_util.Deadline.t ->
  t -> Dod.context -> limit:int -> Dfs.t array * [ `Complete | `Degraded ]
(** Like {!generate}, under a cooperative deadline: the iterative methods
    poll the token between work units and, once it trips, return their
    (always valid, budget-filling) best-so-far tagged [`Degraded].
    [Topk] and [Exhaustive] are not anytime — they run to completion and
    always report [`Complete]. A run whose deadline never trips is
    bit-identical to {!generate}. [domains] is ignored; it is kept only
    because e2ebench/replay.ml passes it. *)
