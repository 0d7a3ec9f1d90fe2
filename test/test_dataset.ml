(* Tests for the synthetic dataset generators: determinism, structural
   soundness (round-trip through the real parser), category inference on the
   generated corpora, and query coverage. *)

open Xsact_dataset

let check = Alcotest.check

(* Small parameters so the whole suite stays fast. *)
let pr_params =
  { Product_reviews.seed = 99; products = 9; min_reviews = 3; max_reviews = 10 }

let or_params =
  { Outdoor_retailer.seed = 7; brands = 4; min_products = 10; max_products = 25 }

let imdb_params = { Imdb.seed = 3; movies = 60; year_range = (1990, 1999) }

let pr_doc = Product_reviews.generate pr_params
let or_doc = Outdoor_retailer.generate or_params
let imdb_doc = Imdb.generate imdb_params

(* The elements reached from [e] by a path of child tags, in document
   order, and their text. *)
let under e tags =
  List.fold_left
    (fun frontier tag ->
      List.concat_map (fun x -> Xml.children_named x tag) frontier)
    [ e ] tags

let texts_under e tags = List.map Xml.text_content (under e tags)

let test_deterministic () =
  check Alcotest.bool "product reviews deterministic" true
    (Xml.equal pr_doc (Product_reviews.generate pr_params));
  check Alcotest.bool "outdoor deterministic" true
    (Xml.equal or_doc (Outdoor_retailer.generate or_params));
  check Alcotest.bool "imdb deterministic" true
    (Xml.equal imdb_doc (Imdb.generate imdb_params));
  let other = Product_reviews.generate { pr_params with seed = 100 } in
  check Alcotest.bool "different seed differs" false (Xml.equal pr_doc other)

let roundtrip name doc =
  match Xml_parse.parse_string (Xml_print.to_string_pretty doc) with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "%s does not re-parse: %s" name (Xml_parse.error_to_string e)

let test_wellformed () =
  roundtrip "product reviews" pr_doc;
  roundtrip "outdoor" or_doc;
  roundtrip "imdb" imdb_doc

let test_pr_structure () =
  let root = pr_doc.Xml.root in
  check Alcotest.string "root" "products" root.Xml.tag;
  let products = Xml.children_named root "product" in
  check Alcotest.int "product count" pr_params.Product_reviews.products
    (List.length products);
  List.iter
    (fun p ->
      List.iter
        (fun field ->
          check Alcotest.bool (field ^ " present") true (Xml.child p field <> None))
        [ "name"; "brand"; "category"; "price"; "rating"; "url"; "reviews" ];
      let reviews = under p [ "reviews"; "review" ] in
      let n = List.length reviews in
      check Alcotest.bool "review count in bounds" true
        (n >= pr_params.Product_reviews.min_reviews
        && n <= pr_params.Product_reviews.max_reviews);
      List.iter
        (fun r ->
          check Alcotest.bool "review has reviewer" true
            (Xml.child r "reviewer" <> None);
          check Alcotest.bool "review has stars" true
            (match Xml.child r "stars" with
            | Some s ->
              let v = int_of_string (Xml.text_content s) in
              v >= 1 && v <= 5
            | None -> false))
        reviews)
    products

let test_pr_categories_inferred () =
  let tree = Doctree.of_document pr_doc in
  let cats = Node_category.infer tree in
  check Alcotest.bool "product entity" true (Node_category.is_entity cats "product");
  check Alcotest.bool "review entity" true (Node_category.is_entity cats "review");
  check Alcotest.bool "pro is attribute" true (Node_category.is_attribute cats "pro");
  check Alcotest.bool "pros is connection" true
    (Node_category.category cats "pros" = Node_category.Connection)

let test_pr_brand_coverage () =
  (* Round-robin assignment must cover TomTom in any corpus with >= 12 GPS
     products; with 9 products (3 GPS), the first three GPS brands appear. *)
  let brands = texts_under pr_doc.Xml.root [ "product"; "brand" ] in
  check Alcotest.bool "tomtom exists" true (List.mem "TomTom" brands);
  (* name uniqueness *)
  let names = texts_under pr_doc.Xml.root [ "product"; "name" ] in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_or_structure () =
  let root = or_doc.Xml.root in
  check Alcotest.string "root" "brands" root.Xml.tag;
  let brands = Xml.children_named root "brand" in
  check Alcotest.int "brand count" or_params.Outdoor_retailer.brands
    (List.length brands);
  List.iter
    (fun b ->
      let products = under b [ "products"; "product" ] in
      let n = List.length products in
      check Alcotest.bool "products in bounds" true
        (n >= or_params.Outdoor_retailer.min_products
        && n <= or_params.Outdoor_retailer.max_products);
      List.iter
        (fun p ->
          List.iter
            (fun field ->
              check Alcotest.bool (field ^ " present") true
                (Xml.child p field <> None))
            [ "name"; "category"; "subcategory"; "gender"; "price" ])
        products)
    brands

let test_or_brand_focus () =
  (* Each brand has a dominant category: its top category should hold a
     clear plurality of its products. *)
  let root = or_doc.Xml.root in
  List.iter
    (fun b ->
      let cats = texts_under b [ "products"; "product"; "category" ] in
      let tally = Hashtbl.create 8 in
      List.iter
        (fun c ->
          Hashtbl.replace tally c
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally c)))
        cats;
      let top = Hashtbl.fold (fun _ v acc -> max v acc) tally 0 in
      let total = List.length cats in
      check Alcotest.bool "dominant category >= 25%" true
        (float_of_int top >= 0.25 *. float_of_int total))
    (Xml.children_named root "brand")

let test_imdb_structure () =
  let root = imdb_doc.Xml.root in
  check Alcotest.string "root" "movies" root.Xml.tag;
  let movies = Xml.children_named root "movie" in
  check Alcotest.int "movie count" imdb_params.Imdb.movies (List.length movies);
  List.iter
    (fun m ->
      List.iter
        (fun field ->
          check Alcotest.bool (field ^ " present") true (Xml.child m field <> None))
        [
          "title"; "year"; "runtime"; "rating"; "votes"; "certificate";
          "company"; "country"; "language"; "genres"; "directors"; "actors";
          "keywords";
        ];
      let year = int_of_string (Xml.text_content (Option.get (Xml.child m "year"))) in
      check Alcotest.bool "year in range" true (year >= 1990 && year <= 1999);
      let genres = under m [ "genres"; "genre" ] in
      check Alcotest.bool "1..3 genres" true
        (List.length genres >= 1 && List.length genres <= 3);
      let actors = under m [ "actors"; "actor" ] in
      check Alcotest.bool "4..12 actors" true
        (List.length actors >= 4 && List.length actors <= 12))
    movies

let test_imdb_famous_directors_present () =
  let directors =
    texts_under imdb_doc.Xml.root [ "movie"; "directors"; "director" ]
  in
  let spielberg =
    List.exists (fun d -> d = "Steven Spielberg") directors
  in
  check Alcotest.bool "spielberg directs something (60 movies, p~1)" true
    spielberg

let test_default_queries_have_results () =
  (* On the default corpora, every advertised sample query must return at
     least two results (so the demo comparisons are possible). This is the
     contract the benches rely on. *)
  let check_ds (ds : Dataset.t) ~lift_to =
    let engine = Search.create ds.Dataset.document in
    List.iter
      (fun (label, keywords) ->
        let n = List.length (Search.query ?lift_to engine keywords) in
        if n < 2 then
          Alcotest.failf "%s/%s %S: only %d results" ds.Dataset.name label
            keywords n)
      ds.Dataset.queries
  in
  check_ds (Dataset.product_reviews ()) ~lift_to:None;
  check_ds (Dataset.outdoor_retailer ()) ~lift_to:(Some "brand");
  check_ds (Dataset.imdb ()) ~lift_to:None

let test_registry () =
  check Alcotest.int "three datasets" 3 (List.length Dataset.names);
  List.iter
    (fun name ->
      match Dataset.by_name name with
      | Some ds -> check Alcotest.string "name matches" name ds.Dataset.name
      | None -> Alcotest.failf "dataset %s missing" name)
    Dataset.names;
  check Alcotest.bool "unknown name" true (Dataset.by_name "nope" = None)

(* ---- IMDB list-file format ------------------------------------------------- *)

let small_imdb = Imdb.generate { Imdb.seed = 21; movies = 40; year_range = (1993, 1996) }

let test_list_roundtrip_document () =
  (* XML -> movies -> list files -> movies -> XML reproduces the document
     exactly (billing positions preserve credit order; qualifiers
     disambiguate duplicate title/year pairs). *)
  match Imdb_list.movies_of_document small_imdb with
  | Error e -> Alcotest.failf "movies_of_document: %s" e
  | Ok movies ->
    let files = Imdb_list.write movies in
    (match Imdb_list.parse files with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok movies' ->
      check Alcotest.int "movie count" (List.length movies) (List.length movies');
      check Alcotest.bool "records equal" true (movies = movies');
      let rebuilt = Imdb_list.document_of_movies movies' in
      check Alcotest.bool "document equal" true (Xml.equal small_imdb rebuilt))

let test_list_duplicate_titles () =
  let mk qualifier =
    {
      Imdb_list.title = "The Mirror"; year = 1995; qualifier; runtime = 100;
      rating = 7.0; votes = 1000; certificate = "PG"; color = "Color";
      company = "C";
      country = "USA"; language = "English"; genres = [ "Drama" ];
      directors = [ "A B" ]; actors = [ "C D"; "E F" ]; keywords = [ "k" ];
    }
  in
  let movies = [ mk 1; mk 2; mk 3 ] in
  check Alcotest.string "key I" "The Mirror (1995)" (Imdb_list.key (mk 1));
  check Alcotest.string "key II" "The Mirror (1995/II)" (Imdb_list.key (mk 2));
  let files = Imdb_list.write movies in
  match Imdb_list.parse files with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok movies' -> check Alcotest.bool "duplicates round-trip" true (movies = movies')

let test_list_parse_errors () =
  let base =
    match Imdb_list.movies_of_document small_imdb with
    | Ok m -> Imdb_list.write m
    | Error e -> Alcotest.failf "setup: %s" e
  in
  let expect_error what files =
    match Imdb_list.parse files with
    | Ok _ -> Alcotest.failf "expected %s to fail" what
    | Error msg ->
      check Alcotest.bool (what ^ " mentions line") true
        (Xsact_util.Textutil.contains_substring msg "line")
  in
  expect_error "bad movies.list"
    { base with Imdb_list.movies = "not a movie key\n" ^ base.Imdb_list.movies };
  expect_error "unknown key in genres"
    { base with Imdb_list.genres = "Nope (1999)\tDrama\n" };
  expect_error "malformed rating"
    { base with Imdb_list.ratings = "      000  x  y  Nope\n" };
  expect_error "continuation before name"
    { base with Imdb_list.directors = "\tNope (1999)  <1>\n" };
  expect_error "bad attribute"
    {
      base with
      Imdb_list.attributes =
        (match String.index_opt base.Imdb_list.attributes '\n' with
        | Some i -> String.sub base.Imdb_list.attributes 0 i ^ "\tbogus=1\n"
        | None -> "bogus\n");
    }

let test_list_dir_io () =
  let dir = Filename.temp_file "xsact_lists" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      match Imdb_list.movies_of_document small_imdb with
      | Error e -> Alcotest.failf "setup: %s" e
      | Ok movies ->
        Imdb_list.write_dir dir movies;
        let _, names = Imdb_list.file_names in
        List.iter
          (fun name ->
            check Alcotest.bool (name ^ " exists") true
              (Sys.file_exists (Filename.concat dir name)))
          names;
        (match Imdb_list.parse_dir dir with
        | Ok movies' -> check Alcotest.bool "dir round-trip" true (movies = movies')
        | Error e -> Alcotest.failf "parse_dir: %s" e))

let test_names_module () =
  let open Xsact_util in
  let g = Prng.of_int 1 in
  for _ = 1 to 50 do
    let n = Names.full_name g in
    check Alcotest.bool "two words" true
      (List.length (String.split_on_char ' ' n) = 2);
    let u = Names.username g in
    check Alcotest.bool "username nonempty lowercase" true
      (u <> "" && String.lowercase_ascii u = u)
  done

let () =
  Alcotest.run "xsact_dataset"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "well-formed XML" `Quick test_wellformed;
          Alcotest.test_case "names module" `Quick test_names_module;
        ] );
      ( "product-reviews",
        [
          Alcotest.test_case "structure" `Quick test_pr_structure;
          Alcotest.test_case "categories inferred" `Quick
            test_pr_categories_inferred;
          Alcotest.test_case "brand coverage" `Quick test_pr_brand_coverage;
        ] );
      ( "outdoor-retailer",
        [
          Alcotest.test_case "structure" `Quick test_or_structure;
          Alcotest.test_case "brand focus" `Quick test_or_brand_focus;
        ] );
      ( "imdb",
        [
          Alcotest.test_case "structure" `Quick test_imdb_structure;
          Alcotest.test_case "famous directors" `Quick
            test_imdb_famous_directors_present;
        ] );
      ( "imdb-lists",
        [
          Alcotest.test_case "document round-trip" `Quick
            test_list_roundtrip_document;
          Alcotest.test_case "duplicate titles" `Quick test_list_duplicate_titles;
          Alcotest.test_case "parse errors" `Quick test_list_parse_errors;
          Alcotest.test_case "directory I/O" `Quick test_list_dir_io;
        ] );
      ( "registry",
        [
          Alcotest.test_case "sample queries return results" `Slow
            test_default_queries_have_results;
          Alcotest.test_case "lookup" `Quick test_registry;
        ] );
    ]
