let log_src = Logs.Src.create "xsact.pipeline" ~doc:"XSACT comparison pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { engine : Search.engine; columns : Extractor.columns }

let of_engine engine = { engine; columns = Extractor.columns engine }
let create doc = of_engine (Search.create doc)
let of_element root = of_engine (Search.of_element root)
let engine t = t.engine

let search ?limit ?lift_to t keywords =
  Search.query ?limit ?lift_to t.engine keywords

let profile_of ?(prune = Result_builder.Full) ?(keywords = "") t
    (r : Search.result) =
  match prune with
  | Result_builder.Full ->
    Extractor.scan t.columns
      ~label:(Search.result_title t.engine r)
      r.Search.node_id
  | mode ->
    let categories = Search.categories t.engine in
    let normalized = Token.normalize_query keywords in
    let pruned =
      Result_builder.prune ~categories ~keywords:normalized mode
        r.Search.element
    in
    Extractor.extract ~categories
      ~label:(Search.result_title t.engine r)
      pruned

type comparison = {
  keywords : string;
  profiles : Result_profile.t array;
  context : Dod.context;
  dfss : Dfs.t array;
  dod : int;
  table : Table.t;
  algorithm : Algorithm.t;
  size_bound : int;
  elapsed_s : float;
  degraded : bool;
}

let compare_profiles ?(config = Config.default) ?deadline ?context ~keywords
    ~size_bound profiles =
  let { Config.params; weight; algorithm; _ } = config in
  if Array.length profiles < 2 then
    Error (Error.Too_few_selected (Array.length profiles))
  else if size_bound < 1 then Error (Error.Bound_too_small size_bound)
  else if Xsact_util.Deadline.over deadline then Error Error.Timeout
  else begin
    (match context with
    | Some c when Dod.num_results c <> Array.length profiles ->
      invalid_arg "Pipeline.compare_profiles: context arity mismatch"
    | _ -> ());
    (* The context build is all-or-nothing: a deadline tripping inside it
       raises Expired, and with no complete round of anything there is no
       best-so-far to degrade to — that is the one Timeout error path.
       Past the context, generation is anytime and only ever degrades. A
       caller-supplied warm [context] (the server's context cache) skips
       the build entirely. *)
    match
      match context with
      | Some c -> c
      | None -> Dod.make_context ~params ~weight ?deadline profiles
    with
    | exception Xsact_util.Deadline.Expired -> Error Error.Timeout
    | context ->
      let (dfss, outcome, elapsed_s) =
        let t0 = Unix.gettimeofday () in
        let dfss, outcome =
          Algorithm.generate_within ?deadline algorithm context
            ~limit:size_bound
        in
        (dfss, outcome, Unix.gettimeofday () -. t0)
      in
      let degraded = outcome = `Degraded in
      let table = Table.build ~size_bound context dfss in
      Log.info (fun m ->
          m "compared %d results for %S with %s (L=%d): DoD=%d in %.4fs%s"
            (Array.length profiles) keywords
            (Algorithm.to_string algorithm)
            size_bound (Dod.total context dfss) elapsed_s
            (if degraded then " (degraded: deadline hit)" else ""));
      Ok
        {
          keywords;
          profiles;
          context;
          dfss;
          dod = Dod.total context dfss;
          table;
          algorithm;
          size_bound;
          elapsed_s;
          degraded;
        }
  end

let compare ?config ?deadline ?lift_to ?prune ?select ?top t ~keywords
    ~size_bound =
  let results = search ?lift_to t keywords in
  match results with
  | [] -> Error (Error.No_results keywords)
  | _ ->
    let chosen =
      match select with
      | Some ranks ->
        let n = List.length results in
        (match List.find_opt (fun r -> r < 1 || r > n) ranks with
        | Some rank ->
          Error (Error.Rank_out_of_range { rank; available = n })
        | None ->
          Ok (List.map (fun rank -> List.nth results (rank - 1)) ranks))
      | None ->
        let top = match top with Some t -> t | None -> 4 in
        Ok (List.filteri (fun i _ -> i < top) results)
    in
    (match chosen with
    | Error e -> Error e
    | Ok chosen ->
      let profiles =
        Array.of_list (List.map (profile_of ?prune ~keywords t) chosen)
      in
      compare_profiles ?config ?deadline ~keywords ~size_bound profiles)
