(* Tests for the search substrate: doctree, tokenizer, inverted index, the
   two SLCA implementations (their agreement on random corpora, and the
   posting-list pass against the whole-document aggregation it replaced),
   node categorization and the end-to-end query pipeline. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let parse_ok src =
  match Xml_parse.parse_string src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse failed: %s" (Xml_parse.error_to_string e)

let shop_doc =
  parse_ok
    {|<shop>
        <product><name>TomTom Go 630</name><price>199</price>
          <reviews>
            <review><stars>5</stars><pro>compact</pro></review>
            <review><stars>3</stars><pro>cheap</pro></review>
          </reviews>
        </product>
        <product><name>Garmin Nuvi</name><price>149</price>
          <reviews>
            <review><stars>4</stars><pro>compact</pro></review>
          </reviews>
        </product>
      </shop>|}

let shop_tree = Doctree.of_document shop_doc
let shop_index = Index.build shop_tree

(* ---- Doctree -------------------------------------------------------------- *)

let test_doctree_preorder () =
  let nodes = Doctree.nodes shop_tree in
  check Alcotest.int "node count" 18 (Array.length nodes);
  check Alcotest.string "root first" "shop" nodes.(0).Doctree.tag;
  Array.iteri
    (fun i (n : Doctree.node) ->
      check Alcotest.int "id = index" i n.Doctree.id;
      if i > 0 then
        check Alcotest.bool "parent before child" true (n.Doctree.parent < i))
    nodes

let test_doctree_dewey_order () =
  let nodes = Doctree.nodes shop_tree in
  for i = 0 to Array.length nodes - 2 do
    check Alcotest.bool "dewey ascending" true
      (Dewey.compare nodes.(i).Doctree.dewey nodes.(i + 1).Doctree.dewey < 0)
  done

let test_doctree_subtree_end () =
  let nodes = Doctree.nodes shop_tree in
  check Alcotest.int "root spans all" (Array.length nodes)
    (Doctree.subtree_end shop_tree 0);
  (* Every node's subtree interval contains exactly its descendants. *)
  Array.iter
    (fun (n : Doctree.node) ->
      let hi = Doctree.subtree_end shop_tree n.Doctree.id in
      Array.iter
        (fun (m : Doctree.node) ->
          let inside = m.Doctree.id >= n.Doctree.id && m.Doctree.id < hi in
          let is_desc =
            Dewey.is_ancestor_or_self n.Doctree.dewey m.Doctree.dewey
          in
          check Alcotest.bool "interval = descendants" is_desc inside)
        nodes)
    nodes

let test_doctree_lookup () =
  let nodes = Doctree.nodes shop_tree in
  Array.iter
    (fun (n : Doctree.node) ->
      match Doctree.find_by_dewey shop_tree n.Doctree.dewey with
      | Some found -> check Alcotest.int "find_by_dewey" n.Doctree.id found.Doctree.id
      | None -> Alcotest.fail "dewey not found")
    nodes;
  check Alcotest.bool "missing dewey" true
    (Doctree.find_by_dewey shop_tree (Dewey.of_list [ 9; 9 ]) = None)

let test_doctree_ancestors () =
  (* Find a <pro> node and check its ancestor chain. *)
  let pro =
    Array.to_list (Doctree.nodes shop_tree)
    |> List.find (fun (n : Doctree.node) -> n.Doctree.tag = "pro")
  in
  let chain =
    List.map (fun (n : Doctree.node) -> n.Doctree.tag)
      (Doctree.ancestors shop_tree pro.Doctree.id)
  in
  check Alcotest.(list string) "chain to root"
    [ "review"; "reviews"; "product"; "shop" ]
    chain;
  check Alcotest.bool "root has no parent" true
    (Doctree.parent shop_tree 0 = None)

(* ---- Token ----------------------------------------------------------------- *)

let test_token () =
  check
    Alcotest.(list string)
    "tokenize" [ "tomtom"; "go"; "630" ]
    (Token.tokenize "TomTom Go 630");
  check
    Alcotest.(list string)
    "unique keeps order" [ "a"; "b" ]
    (Token.tokenize_unique "a b a b a");
  check Alcotest.bool "stopword" true (Token.is_stopword "the");
  check
    Alcotest.(list string)
    "query drops stopwords" [ "jackets" ]
    (Token.normalize_query "the jackets");
  check
    Alcotest.(list string)
    "all-stopword query kept" [ "the"; "and" ]
    (Token.normalize_query "the and")

let test_element_tokens () =
  let e =
    match (parse_ok {|<best-use kind="Road Trips">auto</best-use>|}).Xml.root with
    | r -> r
  in
  let toks = Token.element_tokens e in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true (List.mem expected toks))
    [ "best"; "use"; "auto"; "road"; "trips" ]

(* ---- Index ------------------------------------------------------------------ *)

let test_index_postings () =
  let posts = Index.postings shop_index "compact" in
  check Alcotest.int "compact in two pros" 2 (Array.length posts);
  Array.iter
    (fun id ->
      check Alcotest.string "posting is a pro node" "pro"
        (Doctree.node shop_tree id).Doctree.tag)
    posts;
  check Alcotest.int "unknown token" 0 (Array.length (Index.postings shop_index "zzz"));
  check Alcotest.int "tag tokens indexed" 3
    (Array.length (Index.postings shop_index "review"));
  (* ascending ids *)
  let tomtom = Index.postings shop_index "tomtom" in
  check Alcotest.int "tomtom" 1 (Array.length tomtom);
  check Alcotest.bool "df" true (Index.doc_frequency shop_index "compact" = 2);
  check Alcotest.bool "vocabulary" true (Index.vocabulary_size shop_index > 10);
  check Alcotest.bool "total postings" true (Index.total_postings shop_index > 20)

(* ---- SLCA -------------------------------------------------------------------- *)

let tags_of ids =
  List.map (fun id -> (Doctree.node shop_tree id).Doctree.tag) ids

let test_slca_basic () =
  (* "tomtom compact": tomtom is in product 1's name, compact in its pro and
     in product 2's pro. SLCA should be product 1 (its subtree has both; no
     deeper node has both). *)
  let slcas = Slca.by_aggregation shop_index [ "tomtom"; "compact" ] in
  check Alcotest.(list string) "product slca" [ "product" ] (tags_of slcas);
  (* single keyword: the match nodes themselves are the SLCAs *)
  let single = Slca.by_aggregation shop_index [ "compact" ] in
  check Alcotest.(list string) "leaf slcas" [ "pro"; "pro" ] (tags_of single);
  check Alcotest.(list int) "empty keyword list" []
    (Slca.by_aggregation shop_index []);
  check Alcotest.(list int) "unmatched keyword" []
    (Slca.by_aggregation shop_index [ "tomtom"; "zzz" ])

let test_slca_merge_agrees_basic () =
  List.iter
    (fun keywords ->
      check Alcotest.(list int)
        (String.concat "+" keywords)
        (Slca.by_aggregation shop_index keywords)
        (Slca.by_merge shop_index keywords))
    [
      [ "tomtom"; "compact" ];
      [ "compact" ];
      [ "stars" ];
      [ "garmin"; "compact" ];
      [ "5"; "3" ];
      [ "tomtom"; "zzz" ];
      [ "product" ];
    ]

let test_elca_basic () =
  (* A department whose name contains "sales" and whose two employees each
     mention "report": the department is an ELCA for {sales, report} (its
     own "sales" witness is outside both employees). With nested full
     candidates: none here, so ELCA = candidates-minimal = the department. *)
  let doc =
    parse_ok
      "<org><dept><dname>sales</dname><emp><note>report</note><who>ann</who></emp><emp><note>report</note><who>bob</who></emp></dept><dept><dname>hr</dname><emp><note>report</note><who>eve</who></emp></dept></org>"
  in
  let tree = Doctree.of_element doc.Xml.root in
  let index = Index.build tree in
  let name id = (Doctree.node tree id).Doctree.tag in
  let slcas = Slca.by_aggregation index [ "sales"; "report" ] in
  let elcas = Slca.elca index [ "sales"; "report" ] in
  check Alcotest.(list string) "slca = dept" [ "dept" ] (List.map name slcas);
  check Alcotest.(list string) "elca = dept" [ "dept" ] (List.map name elcas);
  (* Now a query where an ancestor owns a witness above nested results:
     {report} alone — each note is an SLCA; ELCA agrees (single keyword). *)
  let slcas1 = Slca.by_aggregation index [ "report" ] in
  let elcas1 = Slca.elca index [ "report" ] in
  check Alcotest.(list int) "single keyword: elca = slca" slcas1 elcas1;
  (* {ann, report}: slca is the first emp. The dept also contains both, but
     its only "ann"/"report" witnesses sit inside the emp candidate, so the
     dept is NOT an elca. *)
  let elcas2 = Slca.elca index [ "ann"; "report" ] in
  check Alcotest.(list string) "no spurious ancestor elca" [ "emp" ]
    (List.map name elcas2)

let test_elca_owns_witness () =
  (* The store names "gps" itself and has two products matching "cheap";
     the store is an ELCA for {gps, cheap} in addition to any product that
     matches both on its own. *)
  let doc =
    parse_ok
      "<store><title>gps warehouse</title><item><tag>cheap</tag><d>gps</d></item><item><tag>cheap</tag><d>radio</d></item></store>"
  in
  let tree = Doctree.of_element doc.Xml.root in
  let index = Index.build tree in
  let name id = (Doctree.node tree id).Doctree.tag in
  let slcas = Slca.by_aggregation index [ "gps"; "cheap" ] in
  let elcas = Slca.elca index [ "gps"; "cheap" ] in
  (* SLCA: the first item (contains both gps and cheap). *)
  check Alcotest.(list string) "slca = first item" [ "item" ]
    (List.map name slcas);
  (* ELCA: the item AND the store (store's own gps witness in <title> plus
     the second item's cheap, both outside the full first item). *)
  check Alcotest.(list string) "elca = store + item" [ "store"; "item" ]
    (List.map name elcas)

let test_lca_candidates_superset () =
  let keywords = [ "compact"; "stars" ] in
  let slcas = Slca.by_aggregation shop_index keywords in
  let candidates = Slca.lca_candidates shop_index keywords in
  List.iter
    (fun s ->
      check Alcotest.bool "slca is a candidate" true (List.mem s candidates))
    slcas;
  (* candidates are closed under ancestors: the root qualifies *)
  check Alcotest.bool "root is candidate" true (List.mem 0 candidates)

(* Random corpus: random trees with small tag/word alphabets; property: the
   two SLCA implementations agree. *)
let gen_corpus =
  QCheck.Gen.(
    let gen_word = oneofl [ "red"; "blue"; "gps"; "cheap"; "fast"; "new" ] in
    let gen_tag = oneofl [ "a"; "b"; "c"; "d" ] in
    let rec gen_elem depth =
      let* tag = gen_tag in
      let* text = if depth = 0 then gen_word else oneof [ gen_word; return "" ] in
      let* nchildren = if depth = 0 then return 0 else int_range 0 3 in
      let* children = list_size (return nchildren) (gen_elem (depth - 1)) in
      let text_children = if text = "" then [] else [ Xml.text text ] in
      return { Xml.tag; attrs = []; children = text_children @ List.map (fun e -> Xml.Element e) children }
    in
    let* root = gen_elem 4 in
    let* nkw = int_range 1 3 in
    let* keywords = list_size (return nkw) gen_word in
    return (root, keywords))

let prop_slca_agreement =
  QCheck.Test.make ~name:"by_aggregation = by_merge on random corpora"
    ~count:500
    (QCheck.make gen_corpus ~print:(fun (root, kws) ->
         Xml_print.node_to_string (Xml.Element root)
         ^ " / "
         ^ String.concat "," kws))
    (fun (root, keywords) ->
      let tree = Doctree.of_element root in
      let index = Index.build tree in
      Slca.by_aggregation index keywords = Slca.by_merge index keywords)

let prop_slca_minimality =
  QCheck.Test.make ~name:"SLCAs are minimal and cover all keywords" ~count:300
    (QCheck.make gen_corpus)
    (fun (root, keywords) ->
      let tree = Doctree.of_element root in
      let index = Index.build tree in
      let slcas = Slca.by_aggregation index keywords in
      let candidates = Slca.lca_candidates index keywords in
      List.for_all
        (fun s ->
          List.mem s candidates
          && not
               (List.exists
                  (fun c ->
                    c <> s && Doctree.is_descendant_or_self tree ~ancestor:s c)
                  candidates))
        slcas)

let prop_slca_subset_elca =
  QCheck.Test.make ~name:"slca subset of elca subset of candidates" ~count:300
    (QCheck.make gen_corpus)
    (fun (root, keywords) ->
      let tree = Doctree.of_element root in
      let index = Index.build tree in
      let slcas = Slca.by_aggregation index keywords in
      let elcas = Slca.elca index keywords in
      let candidates = Slca.lca_candidates index keywords in
      List.for_all (fun s -> List.mem s elcas) slcas
      && List.for_all (fun e -> List.mem e candidates) elcas)

(* The whole-document aggregation the posting-list pass replaced, kept as a
   reference: masks over every node id, pushed to the parent by one
   descending scan (pre-order ids put every parent before its children). *)
module Reference = struct
  let full_mask k = (1 lsl k) - 1

  let subtree_masks index keywords =
    let tree = Index.doctree index in
    let n = Doctree.size tree in
    let masks = Array.make n 0 in
    List.iteri
      (fun ki kw ->
        let bit = 1 lsl ki in
        Array.iter
          (fun id -> masks.(id) <- masks.(id) lor bit)
          (Index.postings index kw))
      keywords;
    let nodes = Doctree.nodes tree in
    for id = n - 1 downto 1 do
      let p = nodes.(id).Doctree.parent in
      masks.(p) <- masks.(p) lor masks.(id)
    done;
    masks

  let lca_candidates index keywords =
    match keywords with
    | [] -> []
    | _ ->
      let full = full_mask (List.length keywords) in
      let masks = subtree_masks index keywords in
      let acc = ref [] in
      for id = Array.length masks - 1 downto 0 do
        if masks.(id) = full then acc := id :: !acc
      done;
      !acc

  let by_aggregation index keywords =
    match keywords with
    | [] -> []
    | _ ->
      let full = full_mask (List.length keywords) in
      let nodes = Doctree.nodes (Index.doctree index) in
      let masks = subtree_masks index keywords in
      let n = Array.length masks in
      (* covered.(id): some proper descendant of id is a candidate *)
      let covered = Array.make n false in
      for id = n - 1 downto 1 do
        if masks.(id) = full then covered.(nodes.(id).Doctree.parent) <- true
      done;
      for id = n - 1 downto 1 do
        if covered.(id) then covered.(nodes.(id).Doctree.parent) <- true
      done;
      let acc = ref [] in
      for id = n - 1 downto 0 do
        if masks.(id) = full && not covered.(id) then acc := id :: !acc
      done;
      !acc

  let elca index keywords =
    match keywords with
    | [] -> []
    | _ ->
      let full = full_mask (List.length keywords) in
      let nodes = Doctree.nodes (Index.doctree index) in
      let n = Array.length nodes in
      let masks = subtree_masks index keywords in
      let direct = Array.make n 0 in
      List.iteri
        (fun ki kw ->
          let bit = 1 lsl ki in
          Array.iter
            (fun id -> direct.(id) <- direct.(id) lor bit)
            (Index.postings index kw))
        keywords;
      (* contribution.(v): keywords witnessed in v's subtree outside every
         descendant candidate; full children contribute nothing *)
      let contribution = Array.copy direct in
      for id = n - 1 downto 1 do
        let p = nodes.(id).Doctree.parent in
        if masks.(id) <> full then
          contribution.(p) <- contribution.(p) lor contribution.(id)
      done;
      let acc = ref [] in
      for id = n - 1 downto 0 do
        if contribution.(id) = full then acc := id :: !acc
      done;
      !acc
end

let prop_pass_matches_reference =
  QCheck.Test.make
    ~name:"posting-list pass = whole-document reference (slca, elca, candidates)"
    ~count:500 (QCheck.make gen_corpus)
    (fun (root, keywords) ->
      let index = Index.build (Doctree.of_element root) in
      Slca.by_aggregation index keywords
      = Reference.by_aggregation index keywords
      && Slca.elca index keywords = Reference.elca index keywords
      && Slca.lca_candidates index keywords
         = Reference.lca_candidates index keywords)

(* A 2,000-deep chain, past the XML parser's depth cap, with keywords at
   several depths: the pass sizes its stack from the tree's real depth. *)
let test_deep_chain () =
  let depth = 2000 in
  let words =
    [ (3, "alpha"); (700, "beta"); (1200, "alpha"); (1500, "beta");
      (1999, "alpha"); (2000, "gamma") ]
  in
  let rec chain d =
    let own =
      List.filter_map
        (fun (at, w) -> if at = d then Some (Xml.leaf "w" w) else None)
        words
    in
    Xml.elem "n" (if d = depth then own else own @ [ chain (d + 1) ])
  in
  let root =
    match chain 1 with Xml.Element e -> e | _ -> assert false
  in
  let tree = Doctree.of_element root in
  check Alcotest.int "depth past the parser cap" (depth + 1)
    (Doctree.max_depth tree);
  let index = Index.build tree in
  let engine = Search.of_element root in
  List.iter
    (fun keywords ->
      let name = String.concat "+" keywords in
      let slcas = Slca.by_aggregation index keywords in
      check Alcotest.bool (name ^ " has SLCAs") true (slcas <> []);
      check Alcotest.(list int) (name ^ ": aggregation = merge")
        (Slca.by_merge index keywords) slcas;
      check Alcotest.(list int) (name ^ ": elca = reference")
        (Reference.elca index keywords) (Slca.elca index keywords);
      check Alcotest.bool (name ^ ": query answers") true
        (Search.query engine (String.concat " " keywords) <> []))
    [ [ "alpha" ]; [ "alpha"; "beta" ]; [ "beta"; "gamma" ];
      [ "alpha"; "beta"; "gamma" ]; [ "gamma"; "w" ] ]

(* Each keyword takes one bit of an int: 63 keywords still form a full
   conjunction, and a 64th is refused instead of silently dropped. *)
let test_keyword_bound () =
  let words n = List.init n (Printf.sprintf "w%d") in
  let root =
    match
      Xml.elem "r"
        [ Xml.elem "item" [ Xml.leaf "t" (String.concat " " (words 64)) ];
          Xml.elem "item" [ Xml.leaf "t" (String.concat " " (words 62)) ] ]
    with
    | Xml.Element e -> e
    | _ -> assert false
  in
  let engine = Search.of_element root in
  check Alcotest.int "the bound is the int width" Sys.int_size
    Slca.max_keywords;
  check Alcotest.int "63 keywords: only the item holding all of them" 1
    (List.length (Search.query engine (String.concat " " (words 63))));
  check Alcotest.(list int) "63 keywords: SLCA = merge"
    (Slca.by_merge (Search.index engine) (words 63))
    (Slca.by_aggregation (Search.index engine) (words 63));
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "Search.query, 64 keywords" (fun () ->
      ignore (Search.query engine (String.concat " " (words 64))));
  raises "Slca.by_aggregation, 64 keywords" (fun () ->
      ignore (Slca.by_aggregation (Search.index engine) (words 64)))

(* ---- Node_category --------------------------------------------------------- *)

let test_categories () =
  let cats = Node_category.infer shop_tree in
  check Alcotest.string "product entity" "entity"
    (Node_category.category_to_string (Node_category.category cats "product"));
  check Alcotest.string "review entity" "entity"
    (Node_category.category_to_string (Node_category.category cats "review"));
  check Alcotest.string "reviews connection" "connection"
    (Node_category.category_to_string (Node_category.category cats "reviews"));
  check Alcotest.string "name attribute" "attribute"
    (Node_category.category_to_string (Node_category.category cats "name"));
  check Alcotest.string "unknown defaults to attribute" "attribute"
    (Node_category.category_to_string (Node_category.category cats "nope"));
  check Alcotest.bool "is_entity" true (Node_category.is_entity cats "product")

let test_multivalued_attribute () =
  (* genre repeats but is value-like: classified attribute, not entity. *)
  let doc =
    parse_ok
      "<movies><movie><title>A</title><genres><genre>X</genre><genre>Y</genre></genres></movie><movie><title>B</title><genres><genre>X</genre></genres></movie></movies>"
  in
  let tree = Doctree.of_document doc in
  let cats = Node_category.infer tree in
  check Alcotest.string "movie" "entity"
    (Node_category.category_to_string (Node_category.category cats "movie"));
  check Alcotest.string "genre multi-valued attribute" "attribute"
    (Node_category.category_to_string (Node_category.category cats "genre"));
  check Alcotest.string "genres connection" "connection"
    (Node_category.category_to_string (Node_category.category cats "genres"))

let test_entity_of () =
  let cats = Node_category.infer shop_tree in
  let pro =
    Array.to_list (Doctree.nodes shop_tree)
    |> List.find (fun (n : Doctree.node) -> n.Doctree.tag = "pro")
  in
  let entity_id = Node_category.entity_of cats shop_tree pro.Doctree.id in
  check Alcotest.string "pro's entity is review" "review"
    (Doctree.node shop_tree entity_id).Doctree.tag;
  (* entity_of on the root falls back to the root *)
  check Alcotest.int "root fallback" 0 (Node_category.entity_of cats shop_tree 0)

(* ---- Search ------------------------------------------------------------------ *)

let engine = Search.create shop_doc

let test_query_basic () =
  let results = Search.query engine "tomtom" in
  check Alcotest.int "one result" 1 (List.length results);
  let r = List.hd results in
  check Alcotest.string "lifted to product" "product" r.Search.element.Xml.tag;
  check Alcotest.string "title" "TomTom Go 630" (Search.result_title engine r);
  check Alcotest.int "rank" 1 r.Search.rank

let test_query_conjunctive () =
  check Alcotest.int "both products match compact" 2
    (List.length (Search.query engine "compact"));
  check Alcotest.int "conjunctive empty" 0
    (List.length (Search.query engine "tomtom garmin zzz"));
  check Alcotest.int "empty query" 0 (List.length (Search.query engine ""))

let test_query_limit_and_ranks () =
  let results = Search.query ~limit:1 engine "compact" in
  check Alcotest.int "limit" 1 (List.length results);
  let all = Search.query engine "compact" in
  List.iteri
    (fun i r -> check Alcotest.int "ranks sequential" (i + 1) r.Search.rank)
    all;
  (* scores are non-increasing *)
  let rec non_increasing = function
    | (a : Search.result) :: (b :: _ as rest) ->
      a.Search.score >= b.Search.score && non_increasing rest
    | _ -> true
  in
  check Alcotest.bool "sorted by score" true (non_increasing all)

let test_query_lift_to () =
  let results = Search.query ~lift_to:"shop" engine "compact" in
  check Alcotest.int "merged into one shop result" 1 (List.length results);
  check Alcotest.string "shop root" "shop" (List.hd results).Search.element.Xml.tag;
  (* lift_to a nonexistent tag falls back to entity lifting *)
  let fallback = Search.query ~lift_to:"warehouse" engine "compact" in
  check Alcotest.int "fallback" 2 (List.length fallback)

let test_tfidf_scoring () =
  (* Ten items mention "common"; item X is rich in the rare keyword, item Y
     pads on the common one. Occurrence scoring prefers Y (more matches);
     tf-idf prefers X (rare matches are worth more). *)
  let item name words =
    Xml.elem "item"
      (Xml.leaf "name" name :: List.map (fun w -> Xml.leaf "w" w) words)
  in
  let filler i = item (Printf.sprintf "f%d" i) [ "common" ] in
  let x = item "X" [ "rare"; "rare"; "rare"; "common" ] in
  let y = item "Y" [ "common"; "common"; "common"; "common"; "rare" ] in
  let root =
    { Xml.tag = "items"; attrs = [];
      children =
        List.map (fun e -> e) (x :: y :: List.init 10 filler) }
  in
  let engine = Search.of_element root in
  let title r = Search.result_title engine r in
  let occ = Search.query ~scoring:Search.Occurrence engine "common rare" in
  let tfidf = Search.query ~scoring:Search.Tf_idf engine "common rare" in
  check Alcotest.int "both find two results" 2 (List.length occ);
  check Alcotest.string "occurrence prefers the padder" "Y"
    (title (List.hd occ));
  check Alcotest.string "tf-idf prefers the rare-rich" "X"
    (title (List.hd tfidf))

let test_nested_results_deduped () =
  (* "5 3" matches stars in two different reviews of product 1: SLCA is the
     reviews node, lifted to product. No nested duplicates. *)
  let results = Search.query engine "5 3" in
  check Alcotest.int "one product" 1 (List.length results);
  check Alcotest.string "product" "product" (List.hd results).Search.element.Xml.tag

(* Lifting to a tag can nest one candidate inside another. Reference: the
   Dewey-merge SLCAs, the same lifting, and the quadratic nested-candidate
   filter the interval sweep replaced. *)
let prop_query_lift_to =
  QCheck.Test.make ~name:"query with lift_to = merge SLCAs + quadratic filter"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_corpus (oneofl [ "a"; "b"; "c"; "d" ])))
    (fun ((root, keywords), tag) ->
      let engine = Search.of_element root in
      let tree = Search.doctree engine in
      let q = String.concat " " keywords in
      let lift id =
        let rec up id =
          let node = Doctree.node tree id in
          if node.Doctree.tag = tag then Some id
          else if node.Doctree.parent < 0 then None
          else up node.Doctree.parent
        in
        match up id with
        | Some id -> id
        | None -> Node_category.entity_of (Search.categories engine) tree id
      in
      let order = ref [] and witnesses = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let e = lift s in
          match Hashtbl.find_opt witnesses e with
          | Some l -> Hashtbl.replace witnesses e (s :: l)
          | None ->
            Hashtbl.add witnesses e [ s ];
            order := e :: !order)
        (Slca.by_merge (Search.index engine) (Token.normalize_query q));
      let candidates = List.rev !order in
      let expected =
        List.filter
          (fun id ->
            not
              (List.exists
                 (fun other ->
                   other <> id
                   && Doctree.is_descendant_or_self tree ~ancestor:other id)
                 candidates))
          candidates
        |> List.map (fun id -> (id, List.rev (Hashtbl.find witnesses id)))
      in
      let got =
        List.map
          (fun r -> (r.Search.node_id, r.Search.slca_ids))
          (Search.query ~lift_to:tag engine q)
      in
      List.sort compare got = List.sort compare expected)

let () =
  Alcotest.run "xsact_search"
    [
      ( "doctree",
        [
          Alcotest.test_case "preorder ids" `Quick test_doctree_preorder;
          Alcotest.test_case "dewey order" `Quick test_doctree_dewey_order;
          Alcotest.test_case "subtree intervals" `Quick test_doctree_subtree_end;
          Alcotest.test_case "dewey lookup" `Quick test_doctree_lookup;
          Alcotest.test_case "ancestors" `Quick test_doctree_ancestors;
        ] );
      ( "token",
        [
          Alcotest.test_case "tokenize/normalize" `Quick test_token;
          Alcotest.test_case "element tokens" `Quick test_element_tokens;
        ] );
      ("index", [ Alcotest.test_case "postings" `Quick test_index_postings ]);
      ( "slca",
        [
          Alcotest.test_case "basics" `Quick test_slca_basic;
          Alcotest.test_case "merge agreement (fixed)" `Quick
            test_slca_merge_agrees_basic;
          Alcotest.test_case "candidates superset" `Quick
            test_lca_candidates_superset;
          Alcotest.test_case "elca basics" `Quick test_elca_basic;
          Alcotest.test_case "elca ancestor witness" `Quick
            test_elca_owns_witness;
          Alcotest.test_case "2,000-deep chain" `Quick test_deep_chain;
          Alcotest.test_case "keyword bound" `Quick test_keyword_bound;
          qtest prop_slca_agreement;
          qtest prop_slca_minimality;
          qtest prop_slca_subset_elca;
          qtest prop_pass_matches_reference;
        ] );
      ( "categories",
        [
          Alcotest.test_case "shop corpus" `Quick test_categories;
          Alcotest.test_case "multi-valued attribute" `Quick
            test_multivalued_attribute;
          Alcotest.test_case "entity_of" `Quick test_entity_of;
        ] );
      ( "query",
        [
          Alcotest.test_case "basic" `Quick test_query_basic;
          Alcotest.test_case "conjunctive" `Quick test_query_conjunctive;
          Alcotest.test_case "limit and ranks" `Quick test_query_limit_and_ranks;
          Alcotest.test_case "lift_to" `Quick test_query_lift_to;
          Alcotest.test_case "tf-idf scoring" `Quick test_tfidf_scoring;
          Alcotest.test_case "nested dedup" `Quick test_nested_results_deduped;
          qtest prop_query_lift_to;
        ] );
    ]
