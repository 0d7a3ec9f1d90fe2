type compare_request = {
  dataset : string;
  keywords : string;
  select : int list option;
  top : int;
  size_bound : int;
  algorithm : Algorithm.t;
  threshold_pct : float;
  measure : Dod.measure;
  weights : (string * int) list;
}

(* The SLCA pass gives each keyword one bit of an [int] mask, so a query
   with more distinct keywords cannot be searched: it is a bad request. *)
let decode_keywords raw =
  let keywords = Token.normalize_query raw in
  let n = List.length keywords in
  if n > Slca.max_keywords then
    Error
      (Printf.sprintf "\"q\" has %d distinct keywords, at most %d" n
         Slca.max_keywords)
  else Ok (String.concat " " keywords)

(* ---- Decoding ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let required json name decode =
  match Json.member name json with
  | None -> Error (Printf.sprintf "missing required field %S" name)
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let optional json name ~default decode =
  match Json.member name json with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let int_list j =
  Option.bind (Json.to_list j) (fun items ->
      let ints = List.filter_map Json.to_int items in
      if List.length ints = List.length items then Some ints else None)

let weight_rules j =
  Option.bind (Json.obj_fields j) (fun fields ->
      let rules =
        List.filter_map
          (fun (pat, v) -> Option.map (fun w -> (pat, w)) (Json.to_int v))
          fields
      in
      if List.length rules = List.length fields then
        Some (List.sort compare rules)
      else None)

(* Weights must be non-negative ([Dod.make_context] rejects the rest):
   the message names the first offending pattern. *)
let negative_weight rules =
  Option.map
    (fun (pat, w) -> Printf.sprintf "negative weight %d for pattern %S" w pat)
    (List.find_opt (fun (_, w) -> w < 0) rules)

let decode_compare json =
  let* dataset = required json "dataset" Json.to_str in
  let* keywords = Result.bind (required json "q" Json.to_str) decode_keywords in
  let* select = optional json "select" ~default:None (fun j ->
      Option.map Option.some (int_list j)) in
  let* top = optional json "top" ~default:4 Json.to_int in
  let* size_bound = optional json "size_bound" ~default:8 Json.to_int in
  let* algorithm =
    optional json "algorithm" ~default:Algorithm.Multi_swap (fun j ->
        Option.bind (Json.to_str j) Algorithm.of_string)
  in
  let* threshold_pct =
    optional json "threshold_pct" ~default:10.0 Json.to_float
  in
  let* () =
    if Float.is_finite threshold_pct then Ok ()
    else Error "field \"threshold_pct\" must be finite"
  in
  let* measure =
    optional json "measure" ~default:Dod.Raw (fun j ->
        match Json.to_str j with
        | Some "raw" -> Some Dod.Raw
        | Some "rate" -> Some Dod.Rate
        | _ -> None)
  in
  let* weights = optional json "weights" ~default:[] weight_rules in
  let* () =
    match negative_weight weights with Some msg -> Error msg | None -> Ok ()
  in
  Ok
    {
      dataset;
      keywords;
      select;
      top;
      size_bound;
      algorithm;
      threshold_pct;
      measure;
      weights;
    }

(* The durable inverse of [decode_compare]: a request round-trips through
   [json_of_compare] ∘ [decode_compare] unchanged (keyword normalization is
   idempotent), which is what lets the journal store requests as plain
   request bodies. Fields always present — defaults are re-applied on
   decode anyway, and explicit is easier to audit in a journal dump. *)
let json_of_compare r =
  Json.Obj
    ([
       ("dataset", Json.String r.dataset);
       ("q", Json.String r.keywords);
     ]
    @ (match r.select with
      | None -> []
      | Some ranks ->
        [ ("select", Json.List (List.map (fun i -> Json.Int i) ranks)) ])
    @ [
        ("top", Json.Int r.top);
        ("size_bound", Json.Int r.size_bound);
        ("algorithm", Json.String (Algorithm.to_string r.algorithm));
        ("threshold_pct", Json.Float r.threshold_pct);
        ( "measure",
          Json.String
            (match r.measure with Dod.Raw -> "raw" | Dod.Rate -> "rate") );
        ( "weights",
          Json.Obj (List.map (fun (pat, w) -> (pat, Json.Int w)) r.weights) );
      ])

(* ---- Session mutations: op batches and params patches ------------------ *)

type params_patch = {
  p_threshold : float option;
  p_measure : Dod.measure option;
  p_weights : (string * int) list option;
}

type session_op =
  | Op_add of int  (* rank *)
  | Op_remove of int  (* rank *)
  | Op_size of int
  | Op_params of params_patch

(* Mutation-endpoint decode errors split by blame, the same way the
   single-op endpoints do: a body we cannot make sense of is malformed
   (400); a well-formed body asking for something the service rejects —
   an unknown measure, a negative weight, an unknown op — is
   unprocessable (422, like the duplicate-rank rejection). *)
type op_error = Malformed of string | Unprocessable of string

let status_of_op_error = function Malformed _ -> 400 | Unprocessable _ -> 422
let message_of_op_error = function Malformed m | Unprocessable m -> m

let decode_params_patch json =
  let* p_threshold =
    match Json.member "threshold_pct" json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_float v with
      | None -> Error (Malformed "field \"threshold_pct\" has the wrong type")
      | Some thr ->
        if not (Float.is_finite thr) then
          Error (Malformed "field \"threshold_pct\" must be finite")
        else if thr < 0. then
          Error (Unprocessable "field \"threshold_pct\" must be non-negative")
        else Ok (Some thr))
  in
  let* p_measure =
    match Json.member "measure" json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_str v with
      | None -> Error (Malformed "field \"measure\" has the wrong type")
      | Some "raw" -> Ok (Some Dod.Raw)
      | Some "rate" -> Ok (Some Dod.Rate)
      | Some other ->
        Error (Unprocessable (Printf.sprintf "unknown measure %S" other)))
  in
  let* p_weights =
    match Json.member "weights" json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match weight_rules v with
      | None -> Error (Malformed "field \"weights\" has the wrong type")
      | Some rules -> (
        match negative_weight rules with
        | Some msg -> Error (Unprocessable msg)
        | None -> Ok (Some rules)))
  in
  if p_threshold = None && p_measure = None && p_weights = None then
    Error
      (Malformed
         "empty params patch: provide \"threshold_pct\", \"measure\" or \
          \"weights\"")
  else Ok { p_threshold; p_measure; p_weights }

let apply_patch r patch =
  {
    r with
    threshold_pct = Option.value patch.p_threshold ~default:r.threshold_pct;
    measure = Option.value patch.p_measure ~default:r.measure;
    weights = Option.value patch.p_weights ~default:r.weights;
  }

(* One decoder per op kind, shared between the batch endpoint (where the
   kind comes from the "op" member) and the single-op endpoints (where it
   comes from the route) — the bodies are the same shape either way. *)
let decode_single_op ~op json =
  let op_int name =
    match Option.bind (Json.member name json) Json.to_int with
    | Some v -> Ok v
    | None ->
      Error
        (Malformed (Printf.sprintf "op %S needs an integer field %S" op name))
  in
  match op with
  | "add" ->
    let* rank = op_int "rank" in
    Ok (Op_add rank)
  | "remove" ->
    let* rank = op_int "rank" in
    Ok (Op_remove rank)
  | "size" ->
    let* size_bound = op_int "size_bound" in
    Ok (Op_size size_bound)
  | "params" ->
    (* inline patch: the params fields sit next to "op" *)
    let* patch = decode_params_patch json in
    Ok (Op_params patch)
  | other -> Error (Unprocessable (Printf.sprintf "unknown op %S" other))

let decode_op json =
  match Option.bind (Json.member "op" json) Json.to_str with
  | None -> Error (Malformed "each op needs a string field \"op\"")
  | Some op -> decode_single_op ~op json

let decode_ops json =
  match Option.bind (Json.member "ops" json) Json.to_list with
  | None -> Error (Malformed "missing list field \"ops\"")
  | Some [] -> Error (Malformed "\"ops\" must not be empty")
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: tl ->
        let* op = decode_op item in
        go (op :: acc) tl
    in
    go [] items

(* The one rank-addressing and validation routine behind every mutation
   endpoint: the single-op endpoints are thin wrappers building singleton
   batches through it, so the duplicate-rank / unknown-rank 422s and the
   rank → index translation exist exactly once. Ranks are resolved against
   the {e evolving} selection (an add earlier in the batch makes its rank
   removable later), and a params op folds into the evolving request so
   the returned [compare_request] is the session's post-batch recipe.
   [profile_of] is called only for ranks already checked in range. *)
let translate_ops ~request ~ranks ~available ~profile_of ~config_of ops =
  let rec go ranks creq acc = function
    | [] -> Ok (List.rev acc, ranks, creq)
    | Op_add rank :: tl ->
      if List.mem rank ranks then
        Error
          (`Op
            (Unprocessable
               (Printf.sprintf "rank %d is already in the comparison" rank)))
      else if rank < 1 || rank > available then
        Error (`Core (Error.Rank_out_of_range { rank; available }))
      else
        go (ranks @ [ rank ]) creq (Session.Add (profile_of rank) :: acc) tl
    | Op_remove rank :: tl -> (
      let rec index_of i = function
        | [] -> None
        | r :: _ when r = rank -> Some i
        | _ :: rest -> index_of (i + 1) rest
      in
      match index_of 0 ranks with
      | None ->
        Error
          (`Op
            (Unprocessable
               (Printf.sprintf "rank %d is not in the comparison" rank)))
      | Some idx ->
        go
          (List.filter (fun r -> r <> rank) ranks)
          creq
          (Session.Remove idx :: acc)
          tl)
    | Op_size size_bound :: tl ->
      go ranks creq (Session.Set_size_bound size_bound :: acc) tl
    | Op_params patch :: tl ->
      let creq = apply_patch creq patch in
      let config = config_of creq in
      go ranks creq
        (Session.Reparams
           {
             params = Some config.Config.params;
             weight = Some config.Config.weight;
           }
        :: acc)
        tl
  in
  go ranks request [] ops

(* ---- Canonical request keys -------------------------------------------- *)

type key_scope = Full | Context

(* One normalization routine for every key the serve layer derives from a
   request. Field order is fixed and pinned by a golden test:

     ds, q, sel, [k, alg,] thr, measure, w

   [Context] scope emits exactly the fields the Dod.context is a function
   of — dataset, keywords, selection, threshold, measure, weights — and
   omits size_bound and algorithm, neither of which the pair tables
   depend on.
   Requests sharing a context key can share one physical context across
   resizes and algorithm switches; [Full] scope adds the response-shaping
   fields and keys the body cache. [sel] is the explicit rank list when
   given ("1,3,4"), else "top<k>" — a session keys its context with its
   {e resolved} ranks, so a session created from "top4" and one created
   from select [1;2;3;4] intern to the same entry. Every cache hit
   computes a key, so it only appends: [Printf] cost several times the
   key's own bytes in allocation. *)
let canonical_key ~scope r =
  let buf = Buffer.create 96 in
  let add = Buffer.add_string buf in
  add "ds=";
  add r.dataset;
  add "&q=";
  add r.keywords;
  add "&sel=";
  (match r.select with
  | Some ranks -> add (String.concat "," (List.map string_of_int ranks))
  | None ->
    add "top";
    add (string_of_int r.top));
  (match scope with
  | Full ->
    add "&k=";
    add (string_of_int r.size_bound);
    add "&alg=";
    add (Algorithm.to_string r.algorithm)
  | Context -> ());
  add "&thr=";
  add (Json.shortest_g ~digits:6 r.threshold_pct);
  add "&measure=";
  add (match r.measure with Dod.Raw -> "raw" | Dod.Rate -> "rate");
  add "&w=";
  add
    (String.concat ","
       (List.map (fun (pat, w) -> pat ^ ":" ^ string_of_int w) r.weights));
  Buffer.contents buf

let to_config r =
  let weight =
    match r.weights with
    | [] -> Weighting.uniform
    | rules -> Weighting.by_attribute rules
  in
  Config.default
  |> Config.with_params
       { Dod.threshold_pct = r.threshold_pct; measure = r.measure }
  |> Config.with_weight weight
  |> Config.with_algorithm r.algorithm

let status_of_error = function
  | Error.No_results _ -> 404
  | Error.Too_few_selected _ | Error.Rank_out_of_range _
  | Error.Index_out_of_range _ | Error.Bound_too_small _
  | Error.Unsupported_algorithm _ ->
    422
  | Error.Timeout -> 504

(* Stable machine-readable codes, one per variant — clients branch on
   these, never on message text (messages may be reworded). *)
let code_of_error = function
  | Error.No_results _ -> "no_results"
  | Error.Too_few_selected _ -> "too_few_selected"
  | Error.Rank_out_of_range _ -> "rank_out_of_range"
  | Error.Index_out_of_range _ -> "index_out_of_range"
  | Error.Bound_too_small _ -> "bound_too_small"
  | Error.Unsupported_algorithm _ -> "unsupported_algorithm"
  | Error.Timeout -> "timeout"

let code_of_op_error = function
  | Malformed _ -> "malformed"
  | Unprocessable _ -> "unprocessable"

(* ---- Encoders ---------------------------------------------------------- *)

let error_body ~code msg =
  Json.to_string
    (Json.Obj
       [
         ( "error",
           Json.Obj
             [ ("code", Json.String code); ("message", Json.String msg) ] );
       ])

let json_of_results results =
  Json.List
    (List.map
       (fun (r, title) ->
         Json.Obj
           [
             ("rank", Json.Int r.Search.rank);
             ("title", Json.String title);
             ("score", Json.Float r.Search.score);
             ("node_id", Json.Int r.Search.node_id);
           ])
       results)

let json_of_cell = function
  | Table.Unknown -> Json.Null
  | Table.Entries entries ->
    Json.List
      (List.map
         (fun { Table.feature; count; population } ->
           Json.Obj
             [
               ("value", Json.String feature.Feature.value);
               ("count", Json.Int count);
               ("population", Json.Int population);
             ])
         entries)

let json_of_table (table : Table.t) =
  Json.Obj
    [
      ( "labels",
        Json.List
          (Array.to_list
             (Array.map (fun l -> Json.String l) table.Table.labels)) );
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ( "type",
                     Json.String (Feature.ftype_to_string row.Table.ftype) );
                   ("differentiating", Json.Bool row.Table.differentiating);
                   ( "cells",
                     Json.List
                       (Array.to_list (Array.map json_of_cell row.Table.cells))
                   );
                 ])
             table.Table.rows) );
      ("dod", Json.Int table.Table.dod);
      ("size_bound", Json.Int table.Table.size_bound);
    ]

let json_of_comparison (c : Pipeline.comparison) =
  Json.Obj
    ([
       ("keywords", Json.String c.Pipeline.keywords);
       ("algorithm", Json.String (Algorithm.to_string c.Pipeline.algorithm));
       ("size_bound", Json.Int c.Pipeline.size_bound);
       ("dod", Json.Int c.Pipeline.dod);
       ( "dfs_sizes",
         Json.List
           (Array.to_list
              (Array.map
                 (fun dfs -> Json.Int (Dfs.size dfs))
                 c.Pipeline.dfss)) );
       ("elapsed_s", Json.Float c.Pipeline.elapsed_s);
       ("table", json_of_table c.Pipeline.table);
     ]
    (* Only serialized when set, so undeadlined response bodies stay
       byte-identical to previous releases. *)
    @ if c.Pipeline.degraded then [ ("degraded", Json.Bool true) ] else [])
