(* Edge-case coverage sweeps: small behaviors not exercised elsewhere. *)

let check = Alcotest.check
let contains = Xsact_util.Textutil.contains_substring

let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v

(* ---- util edges ----------------------------------------------------------- *)

let test_grid_truncation () =
  let open Xsact_util in
  let g = Grid.create ~max_col_width:8 () in
  Grid.add_row g [ "abcdefghijklmnop"; "x" ];
  let out = Grid.render g in
  check Alcotest.bool "middle-truncated" true (contains out "...");
  check Alcotest.bool "bounded" true
    (String.length (List.hd (String.split_on_char '\n' out)) < 20)

let test_sampling_single () =
  let open Xsact_util in
  let g = Prng.of_int 3 in
  check Alcotest.int "zipf n=1" 0 (Sampling.zipf g ~n:1 ~s:2.0);
  check Alcotest.int "weighted single" 7 (Sampling.weighted g [ (7, 1.0) ]);
  let arr = [| 42 |] in
  Sampling.shuffle g arr;
  check Alcotest.int "shuffle singleton" 42 arr.(0)

let test_dewey_pp () =
  check Alcotest.string "pp" "1.2"
    (Format.asprintf "%a" Dewey.pp (Dewey.of_list [ 1; 2 ]));
  Alcotest.check_raises "negative component"
    (Invalid_argument "Dewey.of_list: negative component") (fun () ->
      ignore (Dewey.of_list [ 1; -2 ]))

let test_stats_pp () =
  let doc =
    Result.get_ok (Xml_parse.parse_string "<a><b>x</b></a>")
  in
  let s = Format.asprintf "%a" Xml_stats.pp (Xml_stats.of_document doc) in
  check Alcotest.bool "mentions elements" true (contains s "elements: 2")

(* ---- feature/profile edges ---------------------------------------------------- *)

let test_single_feature_profile () =
  let p =
    Result_profile.make ~label:"solo" ~populations:[]
      [ (f ~e:"x" ~a:"only" ~v:"v", 1) ]
  in
  check Alcotest.int "one type" 1 (Result_profile.num_types p);
  let d = Topk.generate_one ~limit:5 p in
  check Alcotest.int "fills to total" 1 (Dfs.size d);
  check Alcotest.bool "valid" true (Dfs.is_valid ~limit:5 d)

let test_dod_identical_profiles () =
  (* Comparing a result against an identical copy: nothing differentiates,
     whatever the algorithm. *)
  let mk label =
    Result_profile.make ~label ~populations:[ ("r", 5) ]
      [
        (f ~e:"r" ~a:"a" ~v:"x", 3);
        (f ~e:"r" ~a:"b" ~v:"y", 2);
      ]
  in
  let c = Dod.make_context [| mk "A"; mk "B" |] in
  List.iter
    (fun alg ->
      check Alcotest.int
        (Algorithm.to_string alg ^ " finds nothing")
        0
        (Dod.total c (Algorithm.generate alg c ~limit:4)))
    Algorithm.practical

let test_imdb_list_roman () =
  check Alcotest.bool "qualifier 11 round-trips" true
    (match
       Xsact_dataset.Imdb_list.(
         parse_key
           (key
              {
                title = "T"; year = 2000; qualifier = 11; runtime = 1;
                rating = 1.0; votes = 1; certificate = ""; color = "";
                company = ""; country = ""; language = ""; genres = [];
                directors = []; actors = []; keywords = [];
              }))
     with
    | Some ("T", 2000, 11) -> true
    | _ -> false)

let test_session_stats_chain () =
  let profiles =
    Array.to_list
      (Xsact_workload.Workload.synthetic_profiles ~seed:2 ~results:3
         ~entities:1 ~types_per_entity:4 ~values_per_type:2 ~max_count:3)
  in
  match Session.create ~size_bound:4 profiles with
  | Error e -> Alcotest.failf "create: %s" (Error.to_string e)
  | Ok s ->
    let n0 = Session.stats s in
    let s2 = Result.get_ok (Session.apply s [ Session.Set_size_bound 6 ]) in
    check Alcotest.bool "counter grows along history" true
      (Session.stats s2 > n0 - 1)

let test_render_html_default_title () =
  let profiles = Xsact_workload.Workload.paper_gps_profiles () in
  let c = Dod.make_context profiles in
  let table = Table.build c (Multi_swap.generate c ~limit:4) in
  check Alcotest.bool "default title" true
    (contains (Render_html.table table) "XSACT comparison table")

let test_search_empty_corpus_shapes () =
  let doc = Result.get_ok (Xml_parse.parse_string "<empty/>") in
  let engine = Search.create doc in
  check Alcotest.int "no results" 0 (List.length (Search.query engine "x"));
  check Alcotest.int "empty query" 0 (List.length (Search.query engine " .,"))

let test_weighting_zero () =
  (* Zero weight makes a type worthless but not illegal. *)
  let p1 =
    Result_profile.make ~label:"A" ~populations:[]
      [ (f ~e:"m" ~a:"t" ~v:"x", 1) ]
  in
  let p2 =
    Result_profile.make ~label:"B" ~populations:[]
      [ (f ~e:"m" ~a:"t" ~v:"y", 1) ]
  in
  let c = Dod.make_context ~weight:(fun _ -> 0) [| p1; p2 |] in
  let dfss = Multi_swap.generate c ~limit:2 in
  check Alcotest.int "weighted DoD 0" 0 (Dod.total c dfss);
  Array.iter
    (fun d -> check Alcotest.bool "still fills" true (Dfs.size d = 1))
    dfss

let test_snippet_limit_zero_and_large () =
  let p =
    Result_profile.make ~label:"P" ~populations:[]
      [ (f ~e:"e" ~a:"a" ~v:"x", 2); (f ~e:"e" ~a:"b" ~v:"y", 1) ]
  in
  check Alcotest.int "limit 0" 0 (List.length (Snippet.generate ~limit:0 p));
  check Alcotest.int "limit beyond total" 2
    (List.length (Snippet.generate ~limit:99 p))

let () =
  Alcotest.run "xsact_edges"
    [
      ( "util",
        [
          Alcotest.test_case "grid truncation" `Quick test_grid_truncation;
          Alcotest.test_case "sampling singletons" `Quick test_sampling_single;
          Alcotest.test_case "dewey pp/errors" `Quick test_dewey_pp;
          Alcotest.test_case "stats pp" `Quick test_stats_pp;
        ] );
      ( "core",
        [
          Alcotest.test_case "single-feature profile" `Quick
            test_single_feature_profile;
          Alcotest.test_case "identical profiles" `Quick
            test_dod_identical_profiles;
          Alcotest.test_case "zero weights" `Quick test_weighting_zero;
          Alcotest.test_case "snippet limits" `Quick
            test_snippet_limit_zero_and_large;
          Alcotest.test_case "session stats" `Quick test_session_stats_chain;
          Alcotest.test_case "html default title" `Quick
            test_render_html_default_title;
        ] );
      ( "misc",
        [
          Alcotest.test_case "imdb roman qualifiers" `Quick test_imdb_list_roman;
          Alcotest.test_case "singleton corpus" `Quick
            test_search_empty_corpus_shapes;
        ] );
    ]
