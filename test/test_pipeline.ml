(* Integration tests: the full search -> extract -> DFS -> table pipeline on
   all three generated datasets, table construction, both renderers,
   snippets, the workload helpers, and error paths. *)

let check = Alcotest.check
let contains = Xsact_util.Textutil.contains_substring

(* Small corpora keep the suite fast. *)
let pr_doc =
  Xsact_dataset.Product_reviews.generate
    { Xsact_dataset.Product_reviews.seed = 11; products = 24; min_reviews = 5; max_reviews = 20 }

let or_doc =
  Xsact_dataset.Outdoor_retailer.generate
    { Xsact_dataset.Outdoor_retailer.seed = 5; brands = 6; min_products = 20; max_products = 40 }

let imdb_doc =
  Xsact_dataset.Imdb.generate
    { Xsact_dataset.Imdb.seed = 8; movies = 200; year_range = (1980, 2009) }

let pr_pipeline = Pipeline.create pr_doc
let or_pipeline = Pipeline.create or_doc
let imdb_pipeline = Pipeline.create imdb_doc

let compare_ok ?lift_to ?(algorithm = Algorithm.Multi_swap) pipeline ~keywords
    ~size_bound ~top =
  let config = Config.(default |> with_algorithm algorithm) in
  match
    Pipeline.compare ~config ?lift_to ~top pipeline ~keywords ~size_bound
  with
  | Ok c -> c
  | Error e ->
    Alcotest.failf "compare %S failed: %s" keywords (Error.to_string e)

(* ---- End-to-end on each dataset ------------------------------------------- *)

let test_product_reviews_end_to_end () =
  let c = compare_ok pr_pipeline ~keywords:"gps" ~size_bound:8 ~top:3 in
  check Alcotest.int "three results" 3 (Array.length c.Pipeline.profiles);
  Array.iter
    (fun d ->
      check Alcotest.bool "dfs valid" true (Dfs.is_valid ~limit:8 d);
      check Alcotest.bool "dfs uses budget" true (Dfs.size d > 0))
    c.Pipeline.dfss;
  check Alcotest.bool "positive DoD" true (c.Pipeline.dod > 0);
  check Alcotest.bool "rows bounded by union of selections" true
    (List.length c.Pipeline.table.Table.rows <= 24);
  check Alcotest.bool "generation timed" true (c.Pipeline.elapsed_s >= 0.0)

let test_outdoor_brand_comparison () =
  let c =
    compare_ok or_pipeline ~lift_to:"brand" ~keywords:"men jackets"
      ~size_bound:10 ~top:3
  in
  (* Results are brands; their labels are brand names. *)
  Array.iter
    (fun (p : Result_profile.t) ->
      check Alcotest.bool "brand label nonempty" true
        (String.length p.Result_profile.label > 0);
      check Alcotest.bool "product population > 1" true
        (Result_profile.population p "product" > 1))
    c.Pipeline.profiles;
  (* The brand-focus comparison must expose the subcategory type. *)
  let has_subcategory =
    List.exists
      (fun (row : Table.row) ->
        row.Table.ftype.Feature.attribute = "subcategory")
      c.Pipeline.table.Table.rows
  in
  check Alcotest.bool "subcategory row present" true has_subcategory

let test_imdb_algorithms_ordering () =
  let dod alg =
    (compare_ok imdb_pipeline ~algorithm:alg ~keywords:"action" ~size_bound:8
       ~top:5)
      .Pipeline.dod
  in
  let topk = dod Algorithm.Topk in
  let single = dod Algorithm.Single_swap in
  let multi = dod Algorithm.Multi_swap in
  check Alcotest.bool "single >= topk" true (single >= topk);
  check Alcotest.bool "multi >= topk" true (multi >= topk);
  check Alcotest.bool "swaps strictly beat topk here" true (single > topk)

(* ---- Table ------------------------------------------------------------------ *)

let test_table_structure () =
  let c = compare_ok imdb_pipeline ~keywords:"comedy" ~size_bound:6 ~top:4 in
  let t = c.Pipeline.table in
  check Alcotest.int "labels = results" 4 (Array.length t.Table.labels);
  check Alcotest.int "dod recorded" c.Pipeline.dod t.Table.dod;
  check Alcotest.int "size bound recorded" 6 t.Table.size_bound;
  List.iter
    (fun (row : Table.row) ->
      check Alcotest.int "cells per row" 4 (Array.length row.Table.cells);
      (* every row has at least one non-unknown cell *)
      let filled =
        Array.exists (function Table.Entries _ -> true | Table.Unknown -> false)
          row.Table.cells
      in
      check Alcotest.bool "row not all unknown" true filled;
      Array.iter
        (function
          | Table.Unknown -> ()
          | Table.Entries entries ->
            check Alcotest.bool "entries non-empty" true (entries <> []);
            List.iter
              (fun (e : Table.entry) ->
                check Alcotest.bool "entry type matches row" true
                  (Feature.equal_ftype (Feature.ftype e.Table.feature)
                     row.Table.ftype))
              entries)
        row.Table.cells)
    t.Table.rows;
  (* rows grouped by entity ascending *)
  let entities =
    List.map (fun (r : Table.row) -> r.Table.ftype.Feature.entity) t.Table.rows
  in
  check Alcotest.bool "entity groups ordered" true
    (List.sort compare entities = entities
    || (* grouping, not global sort: check no entity reappears after a gap *)
    let rec no_regroup seen = function
      | [] -> true
      | e :: rest ->
        (match seen with
        | last :: _ when last = e -> no_regroup seen rest
        | _ when List.mem e seen -> false
        | _ -> no_regroup (e :: seen) rest)
    in
    no_regroup [] entities)

let test_table_differentiating_rows_match_dod () =
  let c = compare_ok imdb_pipeline ~keywords:"spielberg" ~size_bound:6 ~top:3 in
  let t = c.Pipeline.table in
  (* If DoD > 0 there must be differentiating rows, and vice versa. *)
  let diff_rows =
    List.length (List.filter (fun (r : Table.row) -> r.Table.differentiating) t.Table.rows)
  in
  check Alcotest.bool "dod > 0 iff differentiating rows" true
    ((c.Pipeline.dod > 0) = (diff_rows > 0))

(* ---- Renderers ---------------------------------------------------------------- *)

let test_render_text () =
  let c = compare_ok pr_pipeline ~keywords:"tomtom gps" ~size_bound:8 ~top:2 in
  let s = Render_text.table c.Pipeline.table in
  Array.iter
    (fun label -> check Alcotest.bool (label ^ " in header") true (contains s label))
    c.Pipeline.table.Table.labels;
  check Alcotest.bool "DoD footer" true (contains s "DoD =");
  check Alcotest.bool "size bound footer" true (contains s "L = 8")

let test_render_text_stats () =
  let c = compare_ok pr_pipeline ~keywords:"tomtom gps" ~size_bound:8 ~top:2 in
  let s = Render_text.result_stats c.Pipeline.profiles.(0) in
  check Alcotest.bool "population line" true (contains s "# of review");
  check Alcotest.bool "header line" true (contains s "ATTR:VALUE:# of occ")

let test_render_html () =
  let c = compare_ok pr_pipeline ~keywords:"garmin gps" ~size_bound:8 ~top:2 in
  let html = Render_html.table ~title:"t <escaped>" c.Pipeline.table in
  check Alcotest.bool "doctype" true (contains html "<!DOCTYPE html>");
  check Alcotest.bool "title escaped" true (contains html "t &lt;escaped&gt;");
  check Alcotest.bool "table element" true (contains html "<table>");
  check Alcotest.bool "dod shown" true
    (contains html "Degree of differentiation");
  Array.iter
    (fun label ->
      check Alcotest.bool "label present" true
        (contains html (Render_html.escape label)))
    c.Pipeline.table.Table.labels

let test_render_markdown () =
  let c = compare_ok imdb_pipeline ~keywords:"spielberg" ~size_bound:6 ~top:3 in
  let md = Render_markdown.table c.Pipeline.table in
  let lines = String.split_on_char '\n' md in
  (* header + separator + one line per row + footer (blank filtered) *)
  check Alcotest.int "line count"
    (List.length c.Pipeline.table.Table.rows + 3)
    (List.length (List.filter (fun l -> l <> "") lines));
  check Alcotest.bool "pipes" true (contains md "| feature type |");
  check Alcotest.bool "separator row" true (contains md "| --- |");
  check Alcotest.bool "footer" true (contains md "*DoD =");
  check Alcotest.string "escaping" "a\\|b \\* c\\\\d"
    (Render_markdown.escape_cell "a|b * c\\d")

let test_render_entry () =
  let e =
    {
      Table.feature = Feature.make ~entity:"review" ~attribute:"pro:compact" ~value:"yes";
      count = 8;
      population = 11;
    }
  in
  check Alcotest.string "percentage form" "pro:compact: yes (8/11, 73%)"
    (Render_text.entry_to_string e);
  let single =
    {
      Table.feature = Feature.make ~entity:"product" ~attribute:"name" ~value:"TomTom";
      count = 1;
      population = 1;
    }
  in
  check Alcotest.string "plain form" "name: TomTom"
    (Render_text.entry_to_string single)

(* ---- Snippets -------------------------------------------------------------------- *)

let test_snippets () =
  let results = Pipeline.search ~limit:2 pr_pipeline "gps" in
  let profile = Pipeline.profile_of pr_pipeline (List.hd results) in
  let snippet = Snippet.generate ~limit:5 profile in
  check Alcotest.int "size bound respected" 5 (List.length snippet);
  let d = Snippet.as_dfs ~limit:5 profile in
  check Alcotest.bool "snippet dfs valid" true (Dfs.is_valid ~limit:5 d);
  let s = Snippet.to_string ~limit:5 profile in
  check Alcotest.bool "label included" true
    (contains s profile.Result_profile.label);
  let s2 = Snippet.to_string ~label:false ~limit:5 profile in
  check Alcotest.bool "label suppressed" false
    (contains s2 profile.Result_profile.label)

(* ---- Error paths -------------------------------------------------------------------- *)

let test_compare_errors () =
  (* Errors are typed variants; to_string keeps a readable message. *)
  (match Pipeline.compare pr_pipeline ~keywords:"zzzznope" ~size_bound:5 with
  | Error (Error.No_results kw) ->
    check Alcotest.string "keywords carried" "zzzznope" kw;
    check Alcotest.bool "message mentions no results" true
      (contains (Error.to_string (Error.No_results kw)) "no results")
  | Error e -> Alcotest.failf "wrong variant: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  (match Pipeline.compare pr_pipeline ~keywords:"gps" ~select:[ 1 ] ~size_bound:5 with
  | Error (Error.Too_few_selected 1) -> ()
  | Error e -> Alcotest.failf "wrong variant: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  (match Pipeline.compare pr_pipeline ~keywords:"gps" ~select:[ 1; 999 ] ~size_bound:5 with
  | Error (Error.Rank_out_of_range { rank = 999; available }) ->
    check Alcotest.bool "available positive" true (available > 0)
  | Error e -> Alcotest.failf "wrong variant: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error");
  match Pipeline.compare pr_pipeline ~keywords:"gps" ~size_bound:0 with
  | Error (Error.Bound_too_small 0) -> ()
  | Error e -> Alcotest.failf "wrong variant: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "expected error"

let test_compare_select () =
  let all = Pipeline.search pr_pipeline "gps" in
  let c =
    match
      Pipeline.compare pr_pipeline ~keywords:"gps" ~select:[ 2; 1 ] ~size_bound:5
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "select failed: %s" (Error.to_string e)
  in
  (* selection order preserved: first profile is rank 2's result *)
  let expected_label =
    Search.result_title (Pipeline.engine pr_pipeline) (List.nth all 1)
  in
  check Alcotest.string "selection order" expected_label
    c.Pipeline.profiles.(0).Result_profile.label

let test_query_biased_snippets () =
  let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v in
  let profile =
    Result_profile.make ~label:"P" ~populations:[ ("review", 10) ]
      [
        (f ~e:"review" ~a:"pro:compact" ~v:"yes", 9);
        (f ~e:"review" ~a:"pro:bright-display" ~v:"yes", 8);
        (f ~e:"review" ~a:"best-use:travel" ~v:"yes", 7);
        (f ~e:"review" ~a:"con:weak-speaker" ~v:"yes", 3);
      ]
  in
  (* Plain snippets take the top by count: compact, bright, travel. *)
  let plain = Snippet.generate ~limit:3 profile in
  let attrs feats =
    List.map (fun ((ft : Feature.t), _) -> ft.Feature.ftype.Feature.attribute) feats
  in
  check
    Alcotest.(list string)
    "plain order"
    [ "pro:compact"; "pro:bright-display"; "best-use:travel" ]
    (attrs plain);
  (* A "speaker" query hoists the weak-speaker type, paying for its three
     more significant prerequisites: total 4 > 3, so it does NOT fit at
     L=3 and the snippet stays frequency-ordered... *)
  let biased3 = Snippet.query_biased ~keywords:"speaker" ~limit:3 profile in
  check Alcotest.(list string) "no room at L=3" (attrs plain) (attrs biased3);
  (* ...but at L=4 the hoist fits (3 prerequisites + itself). *)
  let biased4 = Snippet.query_biased ~keywords:"speaker" ~limit:4 profile in
  check Alcotest.bool "speaker included at L=4" true
    (List.mem "con:weak-speaker" (attrs biased4));
  let d = Snippet.query_biased_dfs ~keywords:"speaker" ~limit:4 profile in
  check Alcotest.bool "biased dfs valid" true (Dfs.is_valid ~limit:4 d);
  (* Value matches bias too: querying a value token. *)
  let by_value = Snippet.query_biased ~keywords:"travel" ~limit:3 profile in
  check Alcotest.bool "value-matched type present" true
    (List.mem "best-use:travel" (attrs by_value))

(* ---- Result pruning (XSeek return policies) ------------------------------------------- *)

let test_prune_matches_semantics () =
  let doc =
    match
      Xml_parse.parse_string
        "<brand><name>Marmot</name><products><product><name>Alpine</name><gender>men</gender><category>jackets</category></product><product><name>Trail</name><gender>men</gender><category>packs</category></product><product><name>Peak</name><gender>women</gender><category>jackets</category></product></products></brand>"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" (Xml_parse.error_to_string e)
  in
  let root = doc.Xml.root in
  check Alcotest.bool "all keywords present" true
    (Result_builder.matches ~keywords:[ "men"; "jackets" ] root);
  check Alcotest.bool "missing keyword" false
    (Result_builder.matches ~keywords:[ "men"; "tents" ] root);
  check Alcotest.bool "empty keywords" false
    (Result_builder.matches ~keywords:[] root)

let test_prune_modes () =
  let engine = Pipeline.engine or_pipeline in
  let results = Search.query ~lift_to:"brand" engine "men jackets" in
  let r = List.hd results in
  let categories = Search.categories engine in
  let keywords = Token.normalize_query "men jackets" in
  (* the product elements strictly below [e], in document order *)
  let products e =
    List.rev
      (Xml.fold_elements
         (fun acc x ->
           if x != e && x.Xml.tag = "product" then x :: acc else acc)
         [] e)
  in
  let count_products e = List.length (products e) in
  let full =
    Result_builder.prune ~categories ~keywords Result_builder.Full
      r.Search.element
  in
  check Alcotest.bool "full is identity" true (full == r.Search.element);
  let matched =
    Result_builder.prune ~categories ~keywords Result_builder.Matched_entities
      r.Search.element
  in
  check Alcotest.bool "matched keeps fewer products" true
    (count_products matched < count_products full && count_products matched > 0);
  (* every kept product is a men's jacket *)
  List.iter
    (fun p ->
      check Alcotest.bool "kept product matches" true
        (Result_builder.matches ~keywords p))
    (products matched);
  let attrs_only =
    Result_builder.prune ~categories ~keywords Result_builder.Attributes_only
      r.Search.element
  in
  check Alcotest.int "attributes view has no products" 0
    (count_products attrs_only);
  check Alcotest.bool "brand name kept" true
    (Xml.child attrs_only "name" <> None)

let test_prune_fallback () =
  (* All keywords sit in the root's own attributes: pruning would drop every
     nested entity, so the policy falls back to the full subtree. *)
  let doc =
    match
      Xml_parse.parse_string
        "<shop><name>gps world</name><item><d>radio</d><x>1</x></item><item><d>tv</d><x>2</x></item></shop>"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" (Xml_parse.error_to_string e)
  in
  let tree = Doctree.of_document doc in
  let categories = Node_category.infer tree in
  let pruned =
    Result_builder.prune ~categories ~keywords:[ "gps"; "world" ]
      Result_builder.Matched_entities doc.Xml.root
  in
  check Alcotest.int "fallback keeps items" 2
    (List.length (Xml.children_named pruned "item"))

let test_prune_through_pipeline () =
  let full =
    compare_ok or_pipeline ~lift_to:"brand" ~keywords:"men jackets"
      ~size_bound:8 ~top:3
  in
  match
    Pipeline.compare or_pipeline ~lift_to:"brand"
      ~prune:Result_builder.Matched_entities ~top:3 ~keywords:"men jackets"
      ~size_bound:8
  with
  | Error e -> Alcotest.failf "pruned compare: %s" (Error.to_string e)
  | Ok pruned ->
    Array.iteri
      (fun i (p : Result_profile.t) ->
        let full_pop =
          Result_profile.population full.Pipeline.profiles.(i) "product"
        in
        let pruned_pop = Result_profile.population p "product" in
        check Alcotest.bool "population shrinks" true (pruned_pop <= full_pop);
        check Alcotest.bool "population positive" true (pruned_pop > 0))
      pruned.Pipeline.profiles

(* ---- Workload ------------------------------------------------------------------------ *)

let test_workload_instances () =
  let instances =
    Xsact_workload.Workload.instances ~top:4 imdb_pipeline
      [ ("Q1", "action"); ("Qnone", "zzznope"); ("Q2", "comedy") ]
  in
  check Alcotest.int "unmatched query dropped" 2 (List.length instances);
  List.iter
    (fun (inst : Xsact_workload.Workload.instance) ->
      check Alcotest.bool "2..4 profiles" true
        (Array.length inst.Xsact_workload.Workload.profiles >= 2
        && Array.length inst.Xsact_workload.Workload.profiles <= 4);
      check Alcotest.bool "result_count >= profiles" true
        (inst.Xsact_workload.Workload.result_count
        >= Array.length inst.Xsact_workload.Workload.profiles))
    instances

let test_workload_imdb_qm () =
  let prepared = Xsact_workload.Workload.imdb_qm ~movies:300 ~top:3 () in
  check Alcotest.bool "most QM queries usable" true
    (List.length prepared.Xsact_workload.Workload.queries >= 5)

let test_synthetic_profiles_shape () =
  let profiles =
    Xsact_workload.Workload.synthetic_profiles ~seed:4 ~results:3 ~entities:2
      ~types_per_entity:3 ~values_per_type:2 ~max_count:5
  in
  check Alcotest.int "three results" 3 (Array.length profiles);
  Array.iter
    (fun (p : Result_profile.t) ->
      check Alcotest.bool "nonempty" true (p.Result_profile.total_features > 0);
      check Alcotest.bool "types bounded" true (Result_profile.num_types p <= 6))
    profiles;
  (* deterministic *)
  let again =
    Xsact_workload.Workload.synthetic_profiles ~seed:4 ~results:3 ~entities:2
      ~types_per_entity:3 ~values_per_type:2 ~max_count:5
  in
  check Alcotest.int "deterministic num types"
    (Result_profile.num_types profiles.(0))
    (Result_profile.num_types again.(0))

let () =
  Alcotest.run "xsact_pipeline"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "product reviews" `Quick test_product_reviews_end_to_end;
          Alcotest.test_case "outdoor brands" `Quick test_outdoor_brand_comparison;
          Alcotest.test_case "imdb algorithm ordering" `Quick
            test_imdb_algorithms_ordering;
        ] );
      ( "table",
        [
          Alcotest.test_case "structure" `Quick test_table_structure;
          Alcotest.test_case "differentiating rows" `Quick
            test_table_differentiating_rows_match_dod;
        ] );
      ( "render",
        [
          Alcotest.test_case "text table" `Quick test_render_text;
          Alcotest.test_case "text stats" `Quick test_render_text_stats;
          Alcotest.test_case "html" `Quick test_render_html;
          Alcotest.test_case "markdown" `Quick test_render_markdown;
          Alcotest.test_case "entry formats" `Quick test_render_entry;
        ] );
      ( "snippets",
        [
          Alcotest.test_case "generation" `Quick test_snippets;
          Alcotest.test_case "query-biased" `Quick test_query_biased_snippets;
        ] );
      ( "errors",
        [
          Alcotest.test_case "compare errors" `Quick test_compare_errors;
          Alcotest.test_case "selection" `Quick test_compare_select;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "matches semantics" `Quick
            test_prune_matches_semantics;
          Alcotest.test_case "modes" `Quick test_prune_modes;
          Alcotest.test_case "fallback" `Quick test_prune_fallback;
          Alcotest.test_case "through pipeline" `Quick
            test_prune_through_pipeline;
        ] );
      ( "workload",
        [
          Alcotest.test_case "instances" `Quick test_workload_instances;
          Alcotest.test_case "imdb qm" `Slow test_workload_imdb_qm;
          Alcotest.test_case "synthetic profiles" `Quick
            test_synthetic_profiles_shape;
        ] );
    ]
