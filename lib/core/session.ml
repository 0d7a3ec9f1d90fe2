type t = {
  config : Config.t;
  size_bound : int;
  context : Dod.context;  (* its results are the session's profiles *)
  dfss : Dfs.t array;
  runs : int ref;  (* shared along the session history *)
}

let generate ?init session context =
  incr session.runs;
  match (session.config.Config.algorithm, init) with
  | Algorithm.Single_swap, Some init ->
    Single_swap.generate ~init context ~limit:session.size_bound
  | Algorithm.Multi_swap, Some init ->
    Multi_swap.generate ~init context ~limit:session.size_bound
  | alg, _ -> Algorithm.generate alg context ~limit:session.size_bound

let make_context ?deadline config profiles =
  Dod.make_context ~params:config.Config.params
    ~weight:config.Config.weight ?deadline profiles

let create ?(config = Config.default) ?context ~size_bound profiles =
  if config.Config.algorithm = Algorithm.Exhaustive then
    Error
      (Error.Unsupported_algorithm (Algorithm.to_string Algorithm.Exhaustive))
  else if List.length profiles < 2 then
    Error (Error.Too_few_selected (List.length profiles))
  else if size_bound < 1 then Error (Error.Bound_too_small size_bound)
  else
    let context =
      match context with
      | Some c -> c
      | None -> make_context config (Array.of_list profiles)
    in
    let skeleton =
      { config; size_bound; context; dfss = [||]; runs = ref 0 }
    in
    let dfss = generate skeleton context in
    Ok { skeleton with dfss }

(* Adopt a rebuilt context and resumed DFSs with no search, extraction,
   context build or generation. The DFSs were produced by
   [create]/[apply] earlier, possibly in another process, so validity is
   re-checked rather than re-derived. *)
let restore ?(runs = 1) ~config ~size_bound ~context ~dfss () =
  let profiles = Dod.results context in
  if config.Config.algorithm = Algorithm.Exhaustive then
    Error
      (Error.Unsupported_algorithm (Algorithm.to_string Algorithm.Exhaustive))
  else if Array.length profiles < 2 then
    Error (Error.Too_few_selected (Array.length profiles))
  else if size_bound < 1 then Error (Error.Bound_too_small size_bound)
  else if Array.length dfss <> Array.length profiles then
    invalid_arg "Session.restore: arity mismatch"
  else if
    not
      (Array.for_all2
         (fun d p -> Dfs.profile d == p && Dfs.is_valid ~limit:size_bound d)
         dfss profiles)
  then invalid_arg "Session.restore: invalid DFS"
  else
    (* [runs] defaults to 1 — what [create] leaves behind; a caller
       passes the run count it kept so the restored session is
       indistinguishable from the live one it resumes. *)
    Ok { config; size_bound; context; dfss; runs = ref (max 1 runs) }

(* Swap in a canonical, physically shared context that is structurally
   identical to the session's own — the intern table's adoption hook.
   The DFSs are untouched: they reference the old profile objects, which
   carry the same data, and every consumer reads them by value. *)
let intern s ~context = { s with context }

let config s = s.config
let profiles s = Dod.results s.context
let dfss s = s.dfss
let dod s = Dod.total s.context s.dfss
let size_bound s = s.size_bound
let context s = s.context
let table s = Table.build ~size_bound:s.size_bound s.context s.dfss
let stats s = !(s.runs)

(* Shrink a DFS to the bound by repeatedly unselecting one feature of its
   globally least significant selected type. Entity type ranges are
   contiguous and significance-descending, so the largest selected global
   index never has a strictly less significant selected type in its entity
   — closing it is always legal (Desideratum 2), and every intermediate
   vector stays downward-closed. Deterministic: no search, no ties. *)
let truncate ~limit d =
  if Dfs.size d <= limit then d
  else begin
    let q = Dfs.to_q_array d in
    let size = ref (Dfs.size d) in
    let gi = ref (Array.length q - 1) in
    while !size > limit do
      if q.(!gi) > 0 then begin
        q.(!gi) <- q.(!gi) - 1;
        decr size
      end
      else decr gi
    done;
    Dfs.of_q_array (Dfs.profile d) q
  end

type op =
  | Add of Result_profile.t
  | Remove of int
  | Set_size_bound of int
  | Reparams of {
      params : Dod.params option;
      weight : (Feature.ftype -> int) option;
    }

(* What a batch leaves, accumulated op by op: the arrangement as the
   survivors [keep] (increasing indices into the session's profiles)
   followed by the newcomers [add] — removes preserve relative order and
   adds append, so it always has that shape — the bound, and the last
   params and weighting a [Reparams] supplied. *)
type batch = {
  keep : int list;
  add : Result_profile.t list;
  bound : int;
  params : Dod.params option;
  weight : (Feature.ftype -> int) option;
}

let last earlier later = if Option.is_some later then later else earlier

(* One op against the arrangement the ops before it left: validation and
   simulation are the same step. *)
let step b = function
  | Add p -> Ok { b with add = b.add @ [ p ] }
  | Remove index ->
    let nk = List.length b.keep in
    let n = nk + List.length b.add in
    let drop i = List.filteri (fun j _ -> j <> i) in
    if index < 0 || index >= n then
      Error (Error.Index_out_of_range { index; length = n })
    else if n <= 2 then Error (Error.Too_few_selected (n - 1))
    else if index < nk then Ok { b with keep = drop index b.keep }
    else Ok { b with add = drop (index - nk) b.add }
  | Set_size_bound bound ->
    if bound < 1 then Error (Error.Bound_too_small bound)
    else Ok { b with bound }
  | Reparams { params; weight } ->
    Ok { b with params = last b.params params; weight = last b.weight weight }

let apply ?deadline s ops =
  let old = Dod.results s.context in
  let n = Array.length old in
  (* One symbolic pass over the batch — O(ops × n) bookkeeping, so an
     invalid op, or a batch that cancels itself out, is decided before
     any pair work or DFS generation. *)
  let start =
    { keep = List.init n Fun.id; add = []; bound = s.size_bound;
      params = None; weight = None }
  in
  match
    List.fold_left (fun b op -> Result.bind b (fun b -> step b op)) (Ok start)
      ops
  with
  | Error _ as e -> e
  | Ok { keep; add; bound; params; weight } ->
    if
      add = [] && List.length keep = n && bound = s.size_bound
      && Option.is_none params && Option.is_none weight
    then Ok s
    else begin
      let config =
        Option.fold ~none:s.config
          ~some:(fun p -> Config.with_params p s.config)
          params
      in
      let config =
        Option.fold ~none:config ~some:(fun w -> Config.with_weight w config)
          weight
      in
      let context =
        if config.Config.incremental then
          Dod.rearrange ?deadline ?params ?weight s.context ~keep ~add
        else
          make_context ?deadline config
            (Array.of_list (List.map (fun i -> old.(i)) keep @ add))
      in
      (* Uniform warm start: survivors resume from their current DFS
         (truncated when the final bound shrank — the identity otherwise,
         physically), newcomers seed from top-k at the final bound. *)
      let init =
        Array.of_list
          (List.map (fun i -> truncate ~limit:bound s.dfss.(i)) keep
          @ List.map (Topk.generate_one ~limit:bound) add)
      in
      let s = { s with config; size_bound = bound; context } in
      Ok { s with dfss = generate ~init s context }
    end
