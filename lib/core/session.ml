type t = {
  config : Config.t;
  size_bound : int;
  profiles : Result_profile.t array;
  context : Dod.context;
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

(* Adopt an already-maintained context (delta-updated or rebuilt) and
   regenerate the DFSs from it, warm-started when [init] is given. *)
let regenerate ?init session context profiles =
  let session = { session with profiles; context } in
  let dfss = generate ?init session context in
  { session with dfss }

let create ?(config = Config.default) ?context ~size_bound profiles =
  if config.Config.algorithm = Algorithm.Exhaustive then
    Error
      (Error.Unsupported_algorithm (Algorithm.to_string Algorithm.Exhaustive))
  else if List.length profiles < 2 then
    Error (Error.Too_few_selected (List.length profiles))
  else if size_bound < 1 then Error (Error.Bound_too_small size_bound)
  else
    let profiles = Array.of_list profiles in
    let context =
      match context with
      | Some c ->
        if Dod.num_results c <> Array.length profiles then
          invalid_arg "Session.create: context arity mismatch";
        c
      | None -> make_context config profiles
    in
    let skeleton =
      {
        config;
        size_bound;
        profiles;
        context;
        dfss = [||];
        runs = ref 0;
      }
    in
    let dfss = generate skeleton context in
    Ok { skeleton with dfss }

(* Adopt fully-materialized state — deserialized context and DFSs — with
   no search, extraction, context build or generation. The warm-boot
   path: everything here was produced by [create]/[apply] in a previous
   process, so validity is re-checked rather than re-derived. *)
let restore ?(runs = 1) ~config ~size_bound ~profiles ~context ~dfss () =
  if config.Config.algorithm = Algorithm.Exhaustive then
    Error
      (Error.Unsupported_algorithm (Algorithm.to_string Algorithm.Exhaustive))
  else if Array.length profiles < 2 then
    Error (Error.Too_few_selected (Array.length profiles))
  else if size_bound < 1 then Error (Error.Bound_too_small size_bound)
  else if
    Dod.num_results context <> Array.length profiles
    || Array.length dfss <> Array.length profiles
  then invalid_arg "Session.restore: arity mismatch"
  else if
    not
      (Array.for_all2
         (fun d p -> Dfs.profile d == p && Dfs.is_valid ~limit:size_bound d)
         dfss profiles)
  then invalid_arg "Session.restore: invalid DFS"
  else
    (* [runs] defaults to 1 — what [create] leaves behind; a warm-boot
       caller passes the run count it snapshotted so the restored session
       is indistinguishable from the live one it resumes. *)
    Ok { config; size_bound; profiles; context; dfss; runs = ref (max 1 runs) }

(* Swap in a canonical, physically shared (profiles, context) pair that
   is structurally identical to the session's own — the intern table's
   adoption hook. The DFSs are untouched: they reference the old profile
   objects, which carry the same data, and every consumer reads them by
   value. *)
let intern s ~profiles ~context =
  if
    Array.length profiles <> Array.length s.profiles
    || Dod.num_results context <> Array.length s.profiles
  then invalid_arg "Session.intern: arity mismatch";
  { s with profiles; context }

let config s = s.config
let profiles s = s.profiles
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

let apply ?deadline s ops =
  let n0 = Array.length s.profiles in
  (* Simulate the batch symbolically before touching anything: validation
     and the final arrangement are O(ops × n) bookkeeping, so an invalid
     op — or a batch that cancels itself out — is decided before any pair
     work or DFS generation. *)
  let rec validate n = function
    | [] -> Ok ()
    | Add _ :: tl -> validate (n + 1) tl
    | Remove index :: tl ->
      if index < 0 || index >= n then
        Error (Error.Index_out_of_range { index; length = n })
      else if n <= 2 then Error (Error.Too_few_selected (n - 1))
      else validate (n - 1) tl
    | Set_size_bound b :: tl ->
      if b < 1 then Error (Error.Bound_too_small b) else validate n tl
    | Reparams _ :: tl -> validate n tl
  in
  match validate n0 ops with
  | Error _ as e -> e
  | Ok () ->
    let slots = ref (List.init n0 (fun i -> `Old i)) in
    let bound = ref s.size_bound in
    let config = ref s.config in
    let cfg_dirty = ref false in
    List.iter
      (function
        | Add p -> slots := !slots @ [ `New p ]
        | Remove i -> slots := List.filteri (fun j _ -> j <> i) !slots
        | Set_size_bound b -> bound := b
        | Reparams { params; weight } ->
          (match params with
          | Some p ->
            config := Config.with_params p !config;
            cfg_dirty := true
          | None -> ());
          (match weight with
          | Some w ->
            config := Config.with_weight w !config;
            cfg_dirty := true
          | None -> ()))
      ops;
    (* Removes preserve relative order, so [n0] surviving [`Old] slots can
       only be 0..n0-1 in place: the arrangement is untouched. *)
    let arrangement_kept =
      List.length !slots = n0
      && List.for_all (function `Old _ -> true | `New _ -> false) !slots
    in
    if arrangement_kept && !bound = s.size_bound && not !cfg_dirty then Ok s
    else begin
      Deadline.check deadline;
      let config = !config and bound = !bound in
      let profiles =
        Array.of_list
          (List.map (function `Old i -> s.profiles.(i) | `New p -> p) !slots)
      in
      (* Uniform warm start: survivors resume from their current DFS
         (truncated when the final bound shrank — the identity otherwise,
         physically), newcomers seed from top-k at the final bound. *)
      let init =
        Array.of_list
          (List.map
             (function
               | `Old i -> truncate ~limit:bound s.dfss.(i)
               | `New p -> Topk.generate_one ~limit:bound p)
             !slots)
      in
      let context =
        if config.Config.incremental then
          let dod_ops =
            List.filter_map
              (function
                | Add p -> Some (Dod.Add p)
                | Remove i -> Some (Dod.Remove i)
                | Set_size_bound _ -> None
                | Reparams { params; weight } ->
                  Some (Dod.Reparams { params; weight }))
              ops
          in
          Dod.apply ?deadline s.context dod_ops
        else make_context ?deadline config profiles
      in
      Ok
        (regenerate ~init
           { s with config; size_bound = bound }
           context profiles)
    end
