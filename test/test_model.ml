(* Tests for the core data model: features, result profiles (canonical
   ordering, significance classes), the extractor, and DFS validity. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v

(* ---- Feature ------------------------------------------------------------- *)

let test_feature_compare () =
  let a = f ~e:"review" ~a:"pro:compact" ~v:"yes" in
  let b = f ~e:"review" ~a:"pro:compact" ~v:"yes" in
  let c = f ~e:"review" ~a:"pro:compact" ~v:"no" in
  let d = f ~e:"product" ~a:"name" ~v:"yes" in
  check Alcotest.bool "equal" true (Feature.equal a b);
  check Alcotest.bool "value differs" false (Feature.equal a c);
  check Alcotest.bool "entity ordering" true (Feature.compare d a < 0);
  check Alcotest.bool "ftype equal" true
    (Feature.equal_ftype (Feature.ftype a) (Feature.ftype c));
  check Alcotest.string "to_string" "review.pro:compact = yes"
    (Feature.to_string a);
  check Alcotest.string "ftype_to_string" "review.pro:compact"
    (Feature.ftype_to_string (Feature.ftype a))

(* ---- Result_profile -------------------------------------------------------- *)

(* A two-entity profile with ties, used across several tests. *)
let profile_fixture () =
  Result_profile.make ~label:"GPS 1"
    ~populations:[ ("review", 11); ("product", 1) ]
    [
      (f ~e:"review" ~a:"pro:easy-to-read" ~v:"yes", 10);
      (f ~e:"review" ~a:"pro:compact" ~v:"yes", 8);
      (f ~e:"review" ~a:"best-use:auto" ~v:"yes", 6);
      (f ~e:"review" ~a:"user-category:casual" ~v:"yes", 6);
      (f ~e:"review" ~a:"pro:large-screen" ~v:"yes", 1);
      (f ~e:"review" ~a:"stars" ~v:"5", 6);
      (f ~e:"review" ~a:"stars" ~v:"3", 4);
      (f ~e:"review" ~a:"stars" ~v:"1", 1);
      (f ~e:"product" ~a:"name" ~v:"TomTom Go 630", 1);
      (f ~e:"product" ~a:"rating" ~v:"4.2", 1);
    ]

let test_profile_structure () =
  let p = profile_fixture () in
  check Alcotest.string "label" "GPS 1" p.Result_profile.label;
  check Alcotest.int "two entities" 2 (Array.length p.Result_profile.entities);
  (* entities sorted by name: product < review *)
  check Alcotest.string "entity order" "product"
    p.Result_profile.entities.(0).Result_profile.entity;
  check Alcotest.int "population" 11 (Result_profile.population p "review");
  check Alcotest.int "unknown population" 1 (Result_profile.population p "zzz");
  check Alcotest.int "total features" 10 p.Result_profile.total_features;
  check Alcotest.int "num types" 8 (Result_profile.num_types p)

let test_profile_type_ordering () =
  let p = profile_fixture () in
  let review = p.Result_profile.entities.(1) in
  let sigs =
    Array.to_list review.Result_profile.types
    |> List.map (fun (t : Result_profile.type_info) ->
           (t.Result_profile.ftype.Feature.attribute, t.Result_profile.significance))
  in
  (* significance = max feature count; stars has features 6,4,1 -> sig 6.
     Order: sig desc, then attribute asc. *)
  check
    Alcotest.(list (pair string int))
    "significance order"
    [
      ("pro:easy-to-read", 10);
      ("pro:compact", 8);
      ("best-use:auto", 6);
      ("stars", 6);
      ("user-category:casual", 6);
      ("pro:large-screen", 1);
    ]
    sigs

let test_profile_classes () =
  let p = profile_fixture () in
  let review = p.Result_profile.entities.(1) in
  check
    Alcotest.(list (pair int int))
    "classes are runs of equal significance"
    [ (0, 1); (1, 1); (2, 3); (5, 1) ]
    (Array.to_list review.Result_profile.classes);
  let product = p.Result_profile.entities.(0) in
  check
    Alcotest.(list (pair int int))
    "product single tie class"
    [ (0, 2) ]
    (Array.to_list product.Result_profile.classes)

let test_profile_features_sorted () =
  let p = profile_fixture () in
  let stars_gi =
    Option.get
      (Result_profile.find_type p { Feature.entity = "review"; attribute = "stars" })
  in
  let info = Result_profile.type_info p stars_gi in
  check Alcotest.int "stars total" 11 info.Result_profile.total;
  check
    Alcotest.(list (pair string int))
    "features count desc"
    [ ("5", 6); ("3", 4); ("1", 1) ]
    (Array.to_list info.Result_profile.features
    |> List.map (fun (fi : Result_profile.feat_info) ->
           (fi.Result_profile.feature.Feature.value, fi.Result_profile.count)))

let test_profile_duplicate_merge () =
  let p =
    Result_profile.make ~label:"r" ~populations:[]
      [
        (f ~e:"e" ~a:"a" ~v:"x", 2);
        (f ~e:"e" ~a:"a" ~v:"x", 3);
      ]
  in
  check Alcotest.int "merged" 1 p.Result_profile.total_features;
  let gi = Option.get (Result_profile.find_type p { Feature.entity = "e"; attribute = "a" }) in
  let info = Result_profile.type_info p gi in
  check Alcotest.int "counts summed" 5 info.Result_profile.features.(0).Result_profile.count

let test_profile_errors () =
  Alcotest.check_raises "non-positive count"
    (Invalid_argument "Result_profile.make: non-positive count for e.a = x")
    (fun () ->
      ignore (Result_profile.make ~label:"r" ~populations:[] [ (f ~e:"e" ~a:"a" ~v:"x", 0) ]));
  Alcotest.check_raises "non-positive population"
    (Invalid_argument "Result_profile.make: non-positive population for e")
    (fun () ->
      ignore
        (Result_profile.make ~label:"r"
           ~populations:[ ("e", 0) ]
           [ (f ~e:"e" ~a:"a" ~v:"x", 1) ]))

let test_global_index_roundtrip () =
  let p = profile_fixture () in
  for gi = 0 to Result_profile.num_types p - 1 do
    let ei = Result_profile.entity_index_of_type p gi in
    let _, ti = p.Result_profile.type_index.(gi) in
    check Alcotest.int "roundtrip" gi
      (Result_profile.global_index p ~entity_index:ei ~type_index:ti)
  done;
  check Alcotest.int "types_seq length" (Result_profile.num_types p)
    (Seq.length (Result_profile.types_seq p))

(* ---- Extractor --------------------------------------------------------------- *)

let parse_ok src =
  match Xml_parse.parse_string src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse failed: %s" (Xml_parse.error_to_string e)

(* Figure-1-shaped corpus: two products; extraction happens against the
   corpus-wide category table, then per result subtree. *)
let corpus =
  parse_ok
    {|<products>
        <product>
          <name>TomTom Go 630</name><rating>4.2</rating>
          <reviews>
            <review><reviewer><nickname>bob</nickname></reviewer><stars>5</stars>
              <pros><pro><compact>yes</compact></pro><pro><easy-to-read>yes</easy-to-read></pro></pros>
              <uses><best-use><auto>yes</auto></best-use></uses>
            </review>
            <review><reviewer><nickname>amy</nickname></reviewer><stars>4</stars>
              <pros><pro><compact>yes</compact></pro></pros>
            </review>
            <review><reviewer><nickname>joe</nickname></reviewer><stars>5</stars>
              <pros><pro><easy-to-read>yes</easy-to-read></pro></pros>
            </review>
          </reviews>
        </product>
        <product>
          <name>TomTom Go 730</name><rating>4.1</rating>
          <reviews>
            <review><reviewer><nickname>zed</nickname></reviewer><stars>4</stars>
              <pros><pro><compact>yes</compact></pro></pros>
            </review>
            <review><reviewer><nickname>kim</nickname></reviewer><stars>2</stars>
              <pros><pro><easy-to-setup>yes</easy-to-setup></pro></pros>
              <uses><best-use><routers>yes</routers></best-use><best-use><travel>yes</travel></best-use></uses>
            </review>
          </reviews>
        </product>
      </products>|}

let extract_product index =
  let tree = Doctree.of_document corpus in
  let cats = Node_category.infer tree in
  let product =
    List.nth (Xml.children_named corpus.Xml.root "product") index
  in
  Extractor.extract ~categories:cats ~label:(Printf.sprintf "P%d" index) product

let count_of p ~e ~a ~v =
  match Result_profile.find_type p { Feature.entity = e; attribute = a } with
  | None -> 0
  | Some gi ->
    let info = Result_profile.type_info p gi in
    Array.fold_left
      (fun acc (fi : Result_profile.feat_info) ->
        if fi.Result_profile.feature.Feature.value = v then fi.Result_profile.count
        else acc)
      0 info.Result_profile.features

let test_extract_counts () =
  let p = extract_product 0 in
  check Alcotest.int "population review" 3 (Result_profile.population p "review");
  check Alcotest.int "population product" 1 (Result_profile.population p "product");
  check Alcotest.int "compact 2/3" 2 (count_of p ~e:"review" ~a:"pro:compact" ~v:"yes");
  check Alcotest.int "easy-to-read 2/3" 2
    (count_of p ~e:"review" ~a:"pro:easy-to-read" ~v:"yes");
  check Alcotest.int "auto 1" 1 (count_of p ~e:"review" ~a:"best-use:auto" ~v:"yes");
  check Alcotest.int "stars 5 twice" 2 (count_of p ~e:"review" ~a:"stars" ~v:"5");
  check Alcotest.int "name" 1 (count_of p ~e:"product" ~a:"name" ~v:"TomTom Go 630");
  check Alcotest.int "nicknames distinct" 1
    (count_of p ~e:"review" ~a:"nickname" ~v:"bob")

let test_extract_flatten () =
  let p = extract_product 0 in
  (* pro -> compact -> yes flattens to attribute "pro:compact", value "yes";
     there is no bare "pro" or "compact" type. *)
  check Alcotest.bool "no bare pro type" true
    (Result_profile.find_type p { Feature.entity = "review"; attribute = "pro" } = None);
  check Alcotest.bool "no compact type" true
    (Result_profile.find_type p { Feature.entity = "review"; attribute = "compact" }
    = None)

let test_extract_fallback () =
  let doc = parse_ok "<leaf>just text</leaf>" in
  let tree = Doctree.of_document doc in
  let cats = Node_category.infer tree in
  let p = Extractor.extract ~categories:cats ~label:"L" doc.Xml.root in
  check Alcotest.int "fallback text feature" 1
    (count_of p ~e:"leaf" ~a:"text" ~v:"just text")

let test_extract_xml_attrs () =
  let doc =
    parse_ok
      {|<items><item sku="A1"><name>X</name><name2>Y</name2></item><item sku="B2"><name>Z</name><name2>W</name2></item></items>|}
  in
  let tree = Doctree.of_document doc in
  let cats = Node_category.infer tree in
  let item = List.hd (Xml.children_named doc.Xml.root "item") in
  let p = Extractor.extract ~categories:cats ~label:"I" item in
  check Alcotest.int "xml attribute feature" 1
    (count_of p ~e:"item" ~a:"item@sku" ~v:"A1")

let test_extract_presence_value () =
  let doc =
    parse_ok
      "<ps><p><name>a</name><flags><waterproof/><sealed/></flags></p><p><name>b</name><flags><waterproof/><light/></flags></p></ps>"
  in
  let tree = Doctree.of_document doc in
  let cats = Node_category.infer tree in
  let p0 = List.hd (Xml.children_named doc.Xml.root "p") in
  let p = Extractor.extract ~categories:cats ~label:"P" p0 in
  check Alcotest.int "presence flag becomes yes" 1
    (count_of p ~e:"p" ~a:"waterproof" ~v:"yes")

(* ---- The corpus scan against the DOM walk ------------------------------------- *)

(* [Extractor.scan] must equal [Extractor.extract] structurally — ids
   included, since both intern through the one symbol table — for every
   node of [root]'s corpus taken as a result root. Returns the first node
   where they differ. *)
let scan_mismatch ?(only = fun _ -> true) engine =
  let cols = Extractor.columns engine in
  let tree = Search.doctree engine and categories = Search.categories engine in
  let rec go id =
    if id >= Doctree.size tree then None
    else
      let node = Doctree.node tree id in
      if
        only node
        && Extractor.scan cols ~label:"L" id
           <> Extractor.extract ~categories ~label:"L" node.element
      then Some node
      else go (id + 1)
  in
  go 0

let report = function
  | None -> ()
  | Some (node : Doctree.node) ->
    Alcotest.failf "scan differs from the DOM walk at node %d <%s>: %s" node.id
      node.tag
      (Xml_print.node_to_string (Xml.Element node.element))

(* Every case the walk distinguishes, with every node as a root: XML
   attributes on the root, entity, connection and attribute nodes;
   nested entities; a connection chain; a multi-child attribute; a
   wrapper chain and presence flags; an entity with no features (the text
   fallback) and one with no text at all; a tag holding ':' whose leaf key
   equals a flattened wrapper's. *)
let scan_fixture =
  {|<shop id="s1">
      <items>
        <group><shelf>
          <item sku="A1">
            <name lang="en">Alpha</name>
            <p:q>v</p:q>
            <p><q>v</q></p>
            <spec unit="cm"><w>1</w><h>2</h></spec>
            <flags><waterproof/><sealed/></flags>
            <parts><part kind="x"><label>bolt</label><n>4</n></part><part><label>nut</label><n>4</n></part></parts>
          </item>
          <item sku="B2">
            <name>Beta</name>
            <p><q>w</q></p><p><q>v</q></p>
            <flags><waterproof/></flags>
            <stub><deep/></stub>
            <parts><part><label>bolt</label><n>2</n></part><part><label>pin</label><n>1</n></part></parts>
          </item>
          <item>loose text<stub/></item>
          <item><stub/></item>
        </shelf></group>
      </items>
    </shop>|}

let test_scan_fixture () =
  let doc = parse_ok scan_fixture in
  let engine = Search.create doc in
  let cats = Search.categories engine in
  check Alcotest.bool "item is an entity" true
    (Node_category.is_entity cats "item");
  check Alcotest.bool "part is an entity" true
    (Node_category.is_entity cats "part");
  check Alcotest.string "group is a connection" "connection"
    (Node_category.category_to_string (Node_category.category cats "group"));
  report (scan_mismatch engine);
  (* the cases the fixture is for do occur *)
  let cols = Extractor.columns engine in
  let p = Extractor.scan cols ~label:"I" 4 in
  check Alcotest.int "xml attribute feature" 1
    (count_of p ~e:"item" ~a:"item@sku" ~v:"A1");
  check Alcotest.int "':' tag and wrapper share one feature" 2
    (count_of p ~e:"item" ~a:"p:q" ~v:"v");
  check Alcotest.int "nested entity attribute" 1
    (count_of p ~e:"part" ~a:"part@kind" ~v:"x");
  check Alcotest.int "multi-child attribute" 1
    (count_of p ~e:"item" ~a:"spec" ~v:"12");
  check Alcotest.int "attribute node's xml attribute" 1
    (count_of p ~e:"item" ~a:"spec@unit" ~v:"cm");
  let tree = Search.doctree engine in
  let items =
    List.filter
      (fun id -> (Doctree.node tree id).tag = "item")
      (List.init (Doctree.size tree) Fun.id)
  in
  let fallback k v =
    count_of
      (Extractor.scan cols ~label:"F" (List.nth items k))
      ~e:"item" ~a:"text" ~v
  in
  check Alcotest.int "text fallback" 1 (fallback 2 "loose text");
  check Alcotest.int "valueless text fallback" 1 (fallback 3 "yes")

(* Every entity node of the three demo corpora. *)
let test_scan_corpora () =
  List.iter
    (fun (ds : Xsact_dataset.Dataset.t) ->
      let engine = Search.create ds.document in
      let cats = Search.categories engine in
      report
        (scan_mismatch
           ~only:(fun (n : Doctree.node) -> Node_category.is_entity cats n.tag)
           engine))
    Xsact_dataset.Dataset.[ product_reviews (); outdoor_retailer (); imdb () ]

(* Every demo query's results, as [Pipeline.profile_of] extracts them,
   with entity lifting and lifted to coarser tags up to the whole
   corpus. *)
let test_scan_demo_queries () =
  List.iter
    (fun (ds : Xsact_dataset.Dataset.t) ->
      let pipeline = Pipeline.create ds.document in
      let engine = Pipeline.engine pipeline in
      List.iter
        (fun (_, keywords) ->
          List.iter
            (fun lift_to ->
              List.iter
                (fun (r : Search.result) ->
                  let walk =
                    Extractor.extract ~categories:(Search.categories engine)
                      ~label:(Search.result_title engine r)
                      r.element
                  in
                  if Pipeline.profile_of ~keywords pipeline r <> walk then
                    Alcotest.failf "%s %S lift_to %s: rank %d differs"
                      ds.name keywords
                      (Option.value lift_to ~default:"-")
                      r.rank)
                (Pipeline.search ?lift_to pipeline keywords))
            [ None; Some "brand"; Some "movie"; Some "products"; Some "brands"; Some "movies" ])
        ds.queries)
    Xsact_dataset.Dataset.[ product_reviews (); outdoor_retailer (); imdb () ]

(* Random corpora over a few tags, so that the category inference sees
   repeats, structure, values and wrappers in every mix: XML attributes,
   presence flags, text mixed with elements, wrapper chains and deep
   nesting. *)
let gen_corpus =
  let open QCheck.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d"; "e"; "f:g" ] in
  let value = oneofl [ "x"; "y"; "x y"; ""; " " ] in
  let attrs = frequency [ (4, return []); (1, map (fun v -> [ ("k", v) ]) value); (1, map2 (fun v w -> [ ("k", v); ("m", w) ]) value value) ] in
  let rec elem depth =
    map3
      (fun tag attrs children -> Xml.Element { Xml.tag; attrs; children })
      tag attrs
      (if depth = 0 then map (fun v -> if v = "" then [] else [ Xml.Text v ]) value
       else
         frequency
           [
             (2, map (fun v -> [ Xml.Text v ]) value);
             (1, return []);
             (2, map (fun c -> [ c ]) (elem (depth - 1)));
             (5, list_size (int_range 2 5) (elem (depth - 1)));
             ( 1,
               map2 (fun v cs -> Xml.Text v :: cs) value
                 (list_size (int_range 1 3) (elem (depth - 1))) );
           ])
  in
  map
    (function Xml.Element e -> e | _ -> assert false)
    (int_range 1 5 >>= elem)

let prop_scan_is_walk =
  QCheck.Test.make ~name:"scan = DOM walk on random corpora, every node a root"
    ~count:300
    (QCheck.make
       ~print:(fun e -> Xml_print.node_to_string (Xml.Element e))
       gen_corpus)
    (fun root -> scan_mismatch (Search.of_element root) = None)

(* ---- Dfs -------------------------------------------------------------------- *)

let test_dfs_empty_and_set () =
  let p = profile_fixture () in
  let d = Dfs.empty p in
  check Alcotest.int "empty size" 0 (Dfs.size d);
  check Alcotest.bool "empty valid" true (Dfs.is_valid ~limit:0 d);
  let gi =
    Option.get
      (Result_profile.find_type p
         { Feature.entity = "review"; attribute = "pro:easy-to-read" })
  in
  let d = Dfs.set_q d gi 1 in
  check Alcotest.int "size 1" 1 (Dfs.size d);
  check Alcotest.(list int) "selected" [ gi ] (Dfs.selected_types d);
  check Alcotest.int "q read back" 1 (Dfs.q d gi);
  Alcotest.check_raises "q too large"
    (Invalid_argument "Dfs.set_q: q out of range") (fun () ->
      ignore (Dfs.set_q d gi 2))

let find p ~e ~a =
  Option.get (Result_profile.find_type p { Feature.entity = e; attribute = a })

let test_dfs_validity_closure () =
  let p = profile_fixture () in
  let etr = find p ~e:"review" ~a:"pro:easy-to-read" in
  let compact = find p ~e:"review" ~a:"pro:compact" in
  let auto = find p ~e:"review" ~a:"best-use:auto" in
  let stars = find p ~e:"review" ~a:"stars" in
  let name = find p ~e:"product" ~a:"name" in
  (* Selecting compact without the more significant easy-to-read: invalid. *)
  let d = Dfs.set_q (Dfs.empty p) compact 1 in
  check Alcotest.bool "skipping etr invalid" false (Dfs.is_valid ~limit:9 d);
  let d = Dfs.set_q d etr 1 in
  check Alcotest.bool "prefix valid" true (Dfs.is_valid ~limit:9 d);
  (* Within the 6-tie class, any subset is fine. *)
  let d = Dfs.set_q d stars 2 in
  check Alcotest.bool "tied class subset valid" true (Dfs.is_valid ~limit:9 d);
  let _ = auto in
  (* Another entity is independent: product.name alone is valid. *)
  let d2 = Dfs.set_q (Dfs.empty p) name 1 in
  check Alcotest.bool "other entity independent" true (Dfs.is_valid ~limit:9 d2);
  (* Size bound enforced. *)
  check Alcotest.bool "size bound" false (Dfs.is_valid ~limit:0 d2)

let test_dfs_can_open_close () =
  let p = profile_fixture () in
  let etr = find p ~e:"review" ~a:"pro:easy-to-read" in
  let compact = find p ~e:"review" ~a:"pro:compact" in
  let auto = find p ~e:"review" ~a:"best-use:auto" in
  let stars = find p ~e:"review" ~a:"stars" in
  let d = Dfs.empty p in
  check Alcotest.bool "top type openable" true (Dfs.can_open d etr);
  check Alcotest.bool "compact blocked" false (Dfs.can_open d compact);
  let d = Dfs.set_q d etr 1 in
  check Alcotest.bool "compact now openable" true (Dfs.can_open d compact);
  let d = Dfs.set_q d compact 1 in
  let d = Dfs.set_q d auto 1 in
  (* stars is in the same tie class as auto: openable without casual. *)
  check Alcotest.bool "tied type openable" true (Dfs.can_open d stars);
  (* closing compact while auto (lower class) is selected: invalid. *)
  check Alcotest.bool "cannot close middle" false (Dfs.can_close d compact);
  check Alcotest.bool "can close last class" true (Dfs.can_close d auto);
  check Alcotest.bool "closing unselected ok" true (Dfs.can_close d stars)

let test_dfs_features_listing () =
  let p = profile_fixture () in
  let stars = find p ~e:"review" ~a:"stars" in
  let etr = find p ~e:"review" ~a:"pro:easy-to-read" in
  let compact = find p ~e:"review" ~a:"pro:compact" in
  let d = Dfs.empty p in
  let d = Dfs.set_q d etr 1 in
  let d = Dfs.set_q d compact 1 in
  let d = Dfs.set_q d stars 2 in
  let feats = Dfs.features d in
  check Alcotest.int "4 features" 4 (List.length feats);
  (* stars prefix = two most frequent values *)
  let stars_values =
    List.filter_map
      (fun ((ft : Feature.t), _) ->
        if ft.Feature.ftype.Feature.attribute = "stars" then Some ft.Feature.value
        else None)
      feats
  in
  check Alcotest.(list string) "stars prefix" [ "5"; "3" ] stars_values

let test_dfs_of_q_array () =
  let p = profile_fixture () in
  let q = Array.make (Result_profile.num_types p) 0 in
  q.(0) <- 1;
  let d = Dfs.of_q_array p q in
  q.(0) <- 9;
  (* mutation after construction must not leak in *)
  check Alcotest.int "copied" 1 (Dfs.q d 0);
  check Alcotest.bool "to_q_array copies" true (Dfs.to_q_array d <> [||]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Dfs.of_q_array: length mismatch") (fun () ->
      ignore (Dfs.of_q_array p [| 1 |]))

(* Property: topk output is always valid and exactly min(limit, total). *)
let gen_profile_params = QCheck.Gen.(pair (int_range 0 1000000) (int_range 2 6))

let prop_topk_valid =
  QCheck.Test.make ~name:"topk fills to min(limit,total) and stays valid"
    ~count:200
    (QCheck.make gen_profile_params)
    (fun (seed, limit) ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed ~results:1 ~entities:2
          ~types_per_entity:3 ~values_per_type:3 ~max_count:5
      in
      let p = profiles.(0) in
      let d = Topk.generate_one ~limit p in
      Dfs.is_valid ~limit d
      && Dfs.size d = min limit p.Result_profile.total_features)

let () =
  Alcotest.run "xsact_model"
    [
      ("feature", [ Alcotest.test_case "compare" `Quick test_feature_compare ]);
      ( "profile",
        [
          Alcotest.test_case "structure" `Quick test_profile_structure;
          Alcotest.test_case "type ordering" `Quick test_profile_type_ordering;
          Alcotest.test_case "classes" `Quick test_profile_classes;
          Alcotest.test_case "features sorted" `Quick test_profile_features_sorted;
          Alcotest.test_case "duplicates merged" `Quick test_profile_duplicate_merge;
          Alcotest.test_case "errors" `Quick test_profile_errors;
          Alcotest.test_case "global index" `Quick test_global_index_roundtrip;
        ] );
      ( "extractor",
        [
          Alcotest.test_case "figure-1 counts" `Quick test_extract_counts;
          Alcotest.test_case "wrapper flattening" `Quick test_extract_flatten;
          Alcotest.test_case "fallback feature" `Quick test_extract_fallback;
          Alcotest.test_case "xml attributes" `Quick test_extract_xml_attrs;
          Alcotest.test_case "presence flags" `Quick test_extract_presence_value;
        ] );
      ( "scan",
        [
          Alcotest.test_case "fixture, every node a root" `Quick
            test_scan_fixture;
          Alcotest.test_case "every entity of the corpora" `Quick
            test_scan_corpora;
          Alcotest.test_case "demo queries, lifted or not" `Quick
            test_scan_demo_queries;
          qtest prop_scan_is_walk;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "empty/set" `Quick test_dfs_empty_and_set;
          Alcotest.test_case "validity closure" `Quick test_dfs_validity_closure;
          Alcotest.test_case "can_open/can_close" `Quick test_dfs_can_open_close;
          Alcotest.test_case "features listing" `Quick test_dfs_features_listing;
          Alcotest.test_case "of_q_array" `Quick test_dfs_of_q_array;
          qtest prop_topk_valid;
        ] );
    ]
