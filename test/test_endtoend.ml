(* End-to-end property tests: random corpora and queries through the whole
   pipeline (parse -> index -> search -> extract -> DFS -> table -> render),
   asserting the global invariants that must survive any input. *)

let qtest = QCheck_alcotest.to_alcotest

(* Random shop-like corpora: a root with entity-ish repeated children that
   carry scalar attributes, multi-valued attributes and nested repeated
   sub-entities. Vocabulary is small so queries hit often. *)
let words = [| "red"; "blue"; "gps"; "fast"; "cheap"; "new"; "big" |]
let attrs = [| "name"; "color"; "speed"; "price" |]
let multis = [| "tag"; "feat" |]

let gen_corpus =
  QCheck.Gen.(
    let word = oneofl (Array.to_list words) in
    let gen_item =
      let* scalars = int_range 1 4 in
      let* scalar_fields =
        flatten_l
          (List.init scalars (fun i ->
               let* v = word in
               return (Xml.leaf attrs.(i) v)))
      in
      let* nmulti = int_range 0 4 in
      let* multi_fields =
        flatten_l
          (List.init nmulti (fun _ ->
               let* tag = oneofl (Array.to_list multis) in
               let* v = word in
               return (Xml.leaf tag v)))
      in
      let* nsubs = int_range 0 3 in
      let* subs =
        flatten_l
          (List.init nsubs (fun _ ->
               let* v1 = word in
               let* v2 = word in
               return
                 (Xml.elem "review"
                    [ Xml.leaf "opinion" v1; Xml.leaf "stars" v2 ])))
      in
      return (Xml.elem "item" (scalar_fields @ multi_fields @ subs))
    in
    let* nitems = int_range 2 8 in
    let* items = list_size (return nitems) gen_item in
    let* nkw = int_range 1 2 in
    let* keywords = list_size (return nkw) word in
    let* limit = int_range 1 6 in
    let root = { Xml.tag = "shop"; attrs = []; children = items } in
    return (root, String.concat " " keywords, limit))

let arbitrary =
  QCheck.make gen_corpus ~print:(fun (root, q, limit) ->
      Printf.sprintf "query=%S limit=%d\n%s" q limit
        (Xml_print.node_to_string (Xml.Element root)))

(* The invariants checked on every random instance. Returns true or raises
   via QCheck.Test.fail_report with a description. *)
let pipeline_invariants (root, keywords, limit) =
  let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
  (* Print -> parse round-trip of the corpus. *)
  let doc = Xml.document root in
  let printed = Xml_print.to_string_pretty doc in
  let doc =
    match Xml_parse.parse_string printed with
    | Ok d -> d
    | Error e -> fail "corpus does not reparse: %s" (Xml_parse.error_to_string e)
  in
  let pipeline = Pipeline.create doc in
  let results = Pipeline.search pipeline keywords in
  (* Results must be ranked 1..n with non-increasing scores and distinct
     node subtrees. *)
  let rec check_ranks i = function
    | [] -> ()
    | (r : Search.result) :: rest ->
      if r.Search.rank <> i then fail "rank %d out of order" r.Search.rank;
      (match rest with
      | next :: _ when next.Search.score > r.Search.score ->
        fail "scores not sorted"
      | _ -> ());
      check_ranks (i + 1) rest
  in
  check_ranks 1 results;
  (* Every result subtree must contain all keywords (conjunctive search +
     lifting preserves containment). *)
  let normalized = Token.normalize_query keywords in
  List.iter
    (fun (r : Search.result) ->
      if not (Result_builder.matches ~keywords:normalized r.Search.element)
      then fail "result misses a keyword")
    results;
  (match results with
  | r1 :: r2 :: _ ->
    let profiles =
      Array.of_list (List.map (Pipeline.profile_of pipeline) [ r1; r2 ])
    in
    let context = Dod.make_context profiles in
    List.iter
      (fun alg ->
        let dfss = Algorithm.generate alg context ~limit in
        (* Validity of every DFS. *)
        Array.iter
          (fun d ->
            if not (Dfs.is_valid ~limit d) then
              fail "%s produced an invalid DFS" (Algorithm.to_string alg))
          dfss;
        (* DoD via total = sum over pairs, and symmetric. *)
        let total = Dod.total context dfss in
        let pair = Dod.dod_pair context ~i:0 ~j:1 dfss.(0) dfss.(1) in
        if total <> pair then fail "total <> pair sum";
        if total < 0 then fail "negative DoD";
        (* Table construction and both renderers never raise, and the table
           is consistent with the DFSs. *)
        let table = Table.build ~size_bound:limit context dfss in
        if Array.length table.Table.labels <> 2 then fail "label count";
        if table.Table.dod <> total then fail "table DoD mismatch";
        let text = Render_text.table table in
        if String.length text = 0 then fail "empty text rendering";
        let html = Render_html.table table in
        if not (Xsact_util.Textutil.contains_substring html "</html>") then
          fail "truncated html";
        (* Each table row's filled cells carry only features of that row's
           type. *)
        List.iter
          (fun (row : Table.row) ->
            Array.iter
              (function
                | Table.Unknown -> ()
                | Table.Entries entries ->
                  List.iter
                    (fun (e : Table.entry) ->
                      if
                        not
                          (Feature.equal_ftype
                             (Feature.ftype e.Table.feature)
                             row.Table.ftype)
                      then fail "cell feature type mismatch")
                    entries)
              row.Table.cells)
          table.Table.rows)
      [ Algorithm.Topk; Algorithm.Single_swap; Algorithm.Multi_swap ]
  | _ -> ());
  true

let prop_pipeline =
  QCheck.Test.make ~name:"pipeline invariants on random corpora" ~count:250
    arbitrary pipeline_invariants

(* Sessions over random instances: operations preserve invariants. *)
let prop_session =
  QCheck.Test.make ~name:"session operations keep invariants" ~count:100
    arbitrary
    (fun (root, keywords, limit) ->
      let pipeline = Pipeline.of_element root in
      match Pipeline.search pipeline keywords with
      | r1 :: r2 :: rest ->
        let p = Pipeline.profile_of pipeline in
        (match Session.create ~size_bound:limit [ p r1; p r2 ] with
        | Error _ -> true (* e.g. degenerate profiles; nothing to check *)
        | Ok s ->
          let s =
            match rest with
            | r3 :: _ -> Result.get_ok (Session.apply s [ Session.Add (p r3) ])
            | [] -> s
          in
          let s =
            match Session.apply s [ Session.Set_size_bound (limit + 2) ] with
            | Ok s -> s
            | Error _ -> s
          in
          Array.for_all
            (fun d -> Dfs.is_valid ~limit:(limit + 2) d)
            (Session.dfss s)
          && Session.dod s >= 0)
      | _ -> true)

(* Weighted contexts on random instances: scaling all weights by a constant
   scales the optimal total; per-type uniform weight w multiplies DoD. *)
let prop_weight_scaling =
  QCheck.Test.make ~name:"uniform weight w scales DoD by w" ~count:100
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 5)))
    (fun (seed, w) ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed ~results:3 ~entities:2
          ~types_per_entity:3 ~values_per_type:2 ~max_count:4
      in
      let c1 = Dod.make_context profiles in
      let cw = Dod.make_context ~weight:(fun _ -> w) profiles in
      let d1 = Multi_swap.generate c1 ~limit:5 in
      let dw = Multi_swap.generate cw ~limit:5 in
      (* The optima coincide up to scaling (the objective is a positive
         multiple), so the achieved values must satisfy the scaling too. *)
      Dod.total cw dw = w * Dod.total c1 d1)

let () =
  Alcotest.run "xsact_endtoend"
    [
      ( "properties",
        [ qtest prop_pipeline; qtest prop_session; qtest prop_weight_scaling ]
      );
    ]
