(* Tests for the XML substrate: parser, printer, round-trips, Dewey labels,
   path queries, statistics. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let parse_ok src =
  match Xml_parse.parse_string src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse failed: %s" (Xml_parse.error_to_string e)

let parse_err src =
  match Xml_parse.parse_string src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error e -> e

(* ---- Parser: success cases --------------------------------------------- *)

let test_parse_minimal () =
  let doc = parse_ok "<a/>" in
  check Alcotest.string "tag" "a" doc.Xml.root.tag;
  check Alcotest.int "no children" 0 (List.length doc.Xml.root.children)

let test_parse_nested_text () =
  let doc = parse_ok "<a><b>hello</b><b>world</b></a>" in
  let bs = Xml.children_named doc.Xml.root "b" in
  check Alcotest.int "two b children" 2 (List.length bs);
  check
    Alcotest.(list string)
    "text" [ "hello"; "world" ]
    (List.map Xml.text_content bs)

let test_parse_attributes () =
  let doc = parse_ok {|<a x="1" y='two &amp; three'><b z="&#65;"/></a>|} in
  check Alcotest.(option string) "x" (Some "1") (Xml.attr doc.Xml.root "x");
  check
    Alcotest.(option string)
    "entity in attr" (Some "two & three")
    (Xml.attr doc.Xml.root "y");
  let b = Option.get (Xml.child doc.Xml.root "b") in
  check Alcotest.(option string) "numeric entity" (Some "A") (Xml.attr b "z")

let test_parse_entities () =
  let doc = parse_ok "<a>&lt;tag&gt; &amp; &quot;x&quot; &apos;y&apos;</a>" in
  check Alcotest.string "decoded" "<tag> & \"x\" 'y'"
    (Xml.text_content doc.Xml.root)

let test_parse_numeric_entities () =
  let doc = parse_ok "<a>&#72;&#105;&#x21; caf&#xE9;</a>" in
  check Alcotest.string "decoded incl UTF-8" "Hi! caf\xC3\xA9"
    (Xml.text_content doc.Xml.root)

let test_parse_cdata () =
  let doc = parse_ok "<a><![CDATA[<raw> & text]]></a>" in
  check Alcotest.string "cdata content" "<raw> & text"
    (Xml.text_content doc.Xml.root)

let test_parse_comments_and_pi () =
  let doc =
    parse_ok
      "<?xml version=\"1.0\"?><!-- head --><a><!-- in --><?php echo ?><b/></a><!-- tail -->"
  in
  check Alcotest.int "one element child" 1
    (List.length (Xml.children_elements doc.Xml.root));
  let has_comment =
    List.exists
      (function Xml.Comment " in " -> true | _ -> false)
      doc.Xml.root.children
  in
  check Alcotest.bool "comment preserved" true has_comment

let test_parse_doctype () =
  let doc =
    parse_ok
      "<!DOCTYPE products [ <!ELEMENT product (#PCDATA)> ]><products><product/></products>"
  in
  check Alcotest.string "root after doctype" "products" doc.Xml.root.tag

let test_parse_whitespace_dropped () =
  let doc = parse_ok "<a>\n  <b/>\n  <c/>\n</a>" in
  check Alcotest.int "only element children" 2
    (List.length doc.Xml.root.children)

let test_parse_mixed_content_kept () =
  let doc = parse_ok "<a>pre<b/>post</a>" in
  check Alcotest.int "three children" 3 (List.length doc.Xml.root.children);
  check Alcotest.string "text content" "prepost" (Xml.text_content doc.Xml.root)

let test_parse_utf8_names () =
  let doc = parse_ok "<caf\xC3\xA9>x</caf\xC3\xA9>" in
  check Alcotest.string "utf8 tag" "caf\xC3\xA9" doc.Xml.root.tag

(* ---- Parser: failure injection ------------------------------------------ *)

let contains = Xsact_util.Textutil.contains_substring

let test_err_mismatched_tag () =
  let e = parse_err "<a><b></a></b>" in
  check Alcotest.bool "mentions mismatch" true
    (contains e.Xml_parse.message "mismatched")

let test_err_unterminated () =
  let e = parse_err "<a><b>text" in
  check Alcotest.bool "mentions unterminated" true
    (contains e.Xml_parse.message "unterminated")

let test_err_bad_entity () =
  let e = parse_err "<a>&bogus;</a>" in
  check Alcotest.bool "mentions entity" true
    (contains e.Xml_parse.message "entity")

let test_err_content_after_root () =
  let e = parse_err "<a/><b/>" in
  check Alcotest.bool "mentions trailing content" true
    (contains e.Xml_parse.message "after the root")

let test_err_duplicate_attr () =
  let e = parse_err {|<a x="1" x="2"/>|} in
  check Alcotest.bool "mentions duplicate" true
    (contains e.Xml_parse.message "duplicate")

let test_err_positions () =
  let e = parse_err "<a>\n  <b>\n</a>" in
  check Alcotest.int "line 3" 3 e.Xml_parse.position.line;
  let e2 = parse_err "" in
  check Alcotest.bool "empty input is an error" true
    (String.length e2.Xml_parse.message > 0)

let test_err_lt_in_attr () =
  let e = parse_err {|<a x="a<b"/>|} in
  check Alcotest.bool "rejects < in attribute" true
    (contains e.Xml_parse.message "<")

let test_parse_file_missing () =
  match Xml_parse.parse_file "/nonexistent/path.xml" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check Alcotest.int "line 0 marker" 0 e.Xml_parse.position.line

(* A hostile 10k-deep document must be rejected by the depth cap, not
   crash anything downstream. *)
let nested depth =
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do Buffer.add_string buf "<d>" done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do Buffer.add_string buf "</d>" done;
  Buffer.contents buf

let test_err_too_deep () =
  check Alcotest.int "cap is 512" 512 Xml_parse.default_max_depth;
  let e = parse_err (nested 10_000) in
  check Alcotest.bool "mentions depth" true
    (contains e.Xml_parse.message "nesting deeper than 512");
  (* exactly at the cap parses; one past fails *)
  (match Xml_parse.parse_string (nested Xml_parse.default_max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth = cap rejected: %s" e.Xml_parse.message);
  (match Xml_parse.parse_string (nested (Xml_parse.default_max_depth + 1)) with
  | Ok _ -> Alcotest.fail "depth = cap + 1 accepted"
  | Error _ -> ());
  (* the knob is honored *)
  (match Xml_parse.parse_string ~max_depth:3 (nested 4) with
  | Ok _ -> Alcotest.fail "max_depth:3 accepted depth 4"
  | Error e ->
    check Alcotest.bool "mentions custom cap" true
      (contains e.Xml_parse.message "deeper than 3"));
  match Xml_parse.parse_string ~max_depth:10_001 (nested 10_000) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "raised cap rejected: %s" e.Xml_parse.message

(* ---- Printer ------------------------------------------------------------- *)

let test_print_escaping () =
  let doc =
    Xml.document
      {
        Xml.tag = "a";
        attrs = [ ("k", "x\"<>&") ];
        children = [ Xml.text "<body> & stuff" ];
      }
  in
  let s = Xml_print.to_string ~decl:false doc in
  check Alcotest.string "escaped"
    "<a k=\"x&quot;&lt;&gt;&amp;\">&lt;body&gt; &amp; stuff</a>\n" s

let test_print_cdata_split () =
  let doc =
    Xml.document { Xml.tag = "a"; attrs = []; children = [ Xml.Cdata "x]]>y" ] }
  in
  let s = Xml_print.to_string ~decl:false doc in
  let reparsed = parse_ok s in
  check Alcotest.string "cdata round-trips even with ]]>" "x]]>y"
    (Xml.text_content reparsed.Xml.root)

let test_pretty_idempotent_parse () =
  let src = "<a><b>t</b><c><d/><d/></c></a>" in
  let doc = parse_ok src in
  let pretty = Xml_print.to_string_pretty doc in
  let doc2 = parse_ok pretty in
  check Alcotest.bool "pretty-printed tree parses equal" true
    (Xml.equal doc doc2)

(* ---- Random round-trip property ------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    let* first = oneofl [ 'a'; 'b'; 'c'; 'x'; 'y'; 'z' ] in
    let* rest =
      string_size
        ~gen:(oneofl [ 'a'; 'e'; 'r'; 't'; '0'; '9'; '-'; '.' ])
        (int_range 0 7)
    in
    return (String.make 1 first ^ rest))

let gen_text =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'h'; 'i'; ' '; '&'; '<'; '>'; '"'; '\''; '9' ])
      (int_range 1 12))

let rec gen_node depth =
  QCheck.Gen.(
    if depth = 0 then map Xml.text gen_text
    else
      frequency
        [
          (3, map Xml.text gen_text);
          (1, map (fun s -> Xml.Cdata s) gen_text);
          (4, gen_element depth);
        ])

and gen_element depth =
  QCheck.Gen.(
    let* tag = gen_name in
    let* nattrs = int_range 0 2 in
    let rec distinct acc n =
      if n = 0 then return (List.rev acc)
      else
        let* name = gen_name in
        if List.mem name acc then distinct acc n
        else distinct (name :: acc) (n - 1)
    in
    let* attr_names = distinct [] nattrs in
    let* attrs =
      flatten_l
        (List.map (fun name -> map (fun v -> (name, v)) gen_text) attr_names)
    in
    let* nchildren = int_range 0 3 in
    let* children = list_size (return nchildren) (gen_node (depth - 1)) in
    return (Xml.Element { Xml.tag; attrs; children }))

let gen_document =
  QCheck.Gen.(
    map
      (fun e ->
        match e with
        | Xml.Element root -> Xml.document root
        | _ -> assert false)
      (gen_element 3))

let arbitrary_document =
  QCheck.make gen_document ~print:(fun d -> Xml_print.to_string d)

(* The parser reads CDATA back as-is but printing loses the Text/Cdata
   distinction boundary-wise: adjacent character runs become one text run,
   and whitespace-only runs between markup are dropped as formatting.
   Normalize both sides identically: unify Cdata into Text, merge adjacent
   text, then drop whitespace-only runs. *)
let rec normalize_children children =
  List.map
    (fun n ->
      match n with
      | Xml.Cdata s -> Xml.Text s
      | Xml.Element e -> Xml.Element (normalize_element e)
      | other -> other)
    children
  |> merge_adjacent
  |> List.filter (function
       | Xml.Text s -> String.trim s <> ""
       | _ -> true)

and merge_adjacent = function
  | Xml.Text a :: Xml.Text b :: rest ->
    merge_adjacent (Xml.Text (a ^ b) :: rest)
  | x :: rest -> x :: merge_adjacent rest
  | [] -> []

and normalize_element e =
  { e with Xml.children = normalize_children e.Xml.children }

let roundtrip_property print doc =
  match Xml_parse.parse_string (print doc) with
  | Error e -> QCheck.Test.fail_report (Xml_parse.error_to_string e)
  | Ok doc2 ->
    Xml.equal_node
      (Xml.Element (normalize_element doc.Xml.root))
      (Xml.Element (normalize_element doc2.Xml.root))

let prop_roundtrip_compact =
  QCheck.Test.make ~name:"print -> parse round-trip (compact)" ~count:300
    arbitrary_document
    (roundtrip_property (fun d -> Xml_print.to_string d))

let prop_roundtrip_pretty =
  QCheck.Test.make ~name:"print -> parse round-trip (pretty)" ~count:300
    arbitrary_document
    (roundtrip_property (fun d -> Xml_print.to_string_pretty d))

(* ---- Xml accessors -------------------------------------------------------- *)

let sample =
  parse_ok
    "<product><name>TomTom</name><reviews><review id=\"1\"><pro>compact</pro></review><review id=\"2\"/></reviews></product>"

let test_accessors () =
  let root = sample.Xml.root in
  check
    Alcotest.(option string)
    "child text" (Some "TomTom")
    (Option.map Xml.text_content (Xml.child root "name"));
  check Alcotest.int "count_elements" 6 (Xml.count_elements root);
  check Alcotest.int "depth" 4 (Xml.depth root);
  let reviews = Option.get (Xml.child root "reviews") in
  check Alcotest.int "children_named" 2
    (List.length (Xml.children_named reviews "review"));
  check Alcotest.string "text_content skips structure" "TomTomcompact"
    (Xml.text_content root);
  check Alcotest.string "immediate_text empty" "" (Xml.immediate_text root)

let test_equal_attr_order () =
  let a = Xml.elem ~attrs:[ ("x", "1"); ("y", "2") ] "t" [] in
  let b = Xml.elem ~attrs:[ ("y", "2"); ("x", "1") ] "t" [] in
  check Alcotest.bool "attr order ignored" true (Xml.equal_node a b);
  let c = Xml.elem ~attrs:[ ("x", "1") ] "t" [] in
  check Alcotest.bool "different attrs detected" false (Xml.equal_node a c)

(* ---- Dewey ----------------------------------------------------------------- *)

let test_dewey_basics () =
  let d = Dewey.of_list [ 0; 2; 1 ] in
  check Alcotest.string "to_string" "0.2.1" (Dewey.to_string d);
  check Alcotest.int "depth" 3 (Dewey.depth d);
  check Alcotest.(list int) "to_list" [ 0; 2; 1 ] (Dewey.to_list d);
  check Alcotest.string "root" "" (Dewey.to_string Dewey.root);
  check Alcotest.bool "parent" true
    (match Dewey.parent d with
    | Some p -> Dewey.to_string p = "0.2"
    | None -> false);
  check Alcotest.bool "root has no parent" true (Dewey.parent Dewey.root = None)

let test_dewey_order () =
  let a = Dewey.of_list [ 0; 1 ] in
  let b = Dewey.of_list [ 0; 1; 0 ] in
  let c = Dewey.of_list [ 0; 2 ] in
  check Alcotest.bool "prefix first" true (Dewey.compare a b < 0);
  check Alcotest.bool "sibling order" true (Dewey.compare b c < 0);
  check Alcotest.bool "ancestor" true (Dewey.is_ancestor a b);
  check Alcotest.bool "not ancestor of sibling" false (Dewey.is_ancestor a c);
  check Alcotest.bool "self not strict ancestor" false (Dewey.is_ancestor a a);
  check Alcotest.bool "ancestor-or-self" true (Dewey.is_ancestor_or_self a a)

let test_dewey_lca () =
  let a = Dewey.of_list [ 0; 1; 2 ] in
  let b = Dewey.of_list [ 0; 1; 3; 1 ] in
  check Alcotest.string "lca" "0.1" (Dewey.to_string (Dewey.lca a b));
  check Alcotest.string "lca with root" ""
    (Dewey.to_string (Dewey.lca a (Dewey.of_list [ 5 ])))

let gen_dewey = QCheck.Gen.(list_size (int_range 0 5) (int_range 0 4))

let prop_dewey_lca_sym =
  QCheck.Test.make ~name:"lca symmetric and ancestral" ~count:500
    QCheck.(make Gen.(pair gen_dewey gen_dewey))
    (fun (la, lb) ->
      let a = Dewey.of_list la and b = Dewey.of_list lb in
      let l = Dewey.lca a b in
      Dewey.equal l (Dewey.lca b a)
      && Dewey.is_ancestor_or_self l a
      && Dewey.is_ancestor_or_self l b)

let prop_dewey_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    QCheck.(make Gen.(pair gen_dewey gen_dewey))
    (fun (la, lb) ->
      let a = Dewey.of_list la and b = Dewey.of_list lb in
      let c1 = Dewey.compare a b and c2 = Dewey.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

(* ---- Xml_sax -------------------------------------------------------------------- *)

let test_sax_events () =
  let src = "<?xml version=\"1.0\"?><a x=\"1\"><b>hi</b><!--c--><![CDATA[d]]></a>" in
  match Xml_sax.events src with
  | Error e -> Alcotest.failf "sax failed: %s" (Xml_sax.error_to_string e)
  | Ok events ->
    let expected =
      [
        Xml_sax.Pi ("xml", "version=\"1.0\"");
        Xml_sax.Start_element ("a", [ ("x", "1") ]);
        Xml_sax.Start_element ("b", []);
        Xml_sax.Text "hi";
        Xml_sax.End_element "b";
        Xml_sax.Comment "c";
        Xml_sax.Cdata "d";
        Xml_sax.End_element "a";
      ]
    in
    check Alcotest.bool "event stream" true (events = expected)

let test_sax_self_closing () =
  match Xml_sax.events "<a><b/></a>" with
  | Ok
      [
        Xml_sax.Start_element ("a", []);
        Xml_sax.Start_element ("b", []);
        Xml_sax.End_element "b";
        Xml_sax.End_element "a";
      ] ->
    ()
  | Ok _ -> Alcotest.fail "unexpected events"
  | Error e -> Alcotest.failf "sax failed: %s" (Xml_sax.error_to_string e)

let test_sax_errors () =
  let err src =
    match Xml_sax.events src with
    | Ok _ -> Alcotest.failf "expected sax error for %S" src
    | Error e -> e.Xml_sax.message
  in
  check Alcotest.bool "mismatch" true (contains (err "<a></b>") "mismatched");
  check Alcotest.bool "unmatched close" true
    (contains (err "<a/></b>") "unmatched");
  check Alcotest.bool "trailing" true (contains (err "<a/><b/>") "after the root");
  check Alcotest.bool "text before root" true
    (contains (err "hi<a/>") "before the root");
  check Alcotest.bool "no root" true (contains (err "  ") "no root");
  check Alcotest.bool "unterminated" true
    (contains (err "<a><b>") "unterminated")

let test_sax_fold_counts () =
  let count =
    Xml_sax.fold "<a><b/><b/><b/></a>" ~init:0 ~f:(fun acc e ->
        match e with Xml_sax.Start_element ("b", _) -> acc + 1 | _ -> acc)
  in
  check Alcotest.(result int reject) "fold counts" (Ok 3) count

(* Fuzz: arbitrary bytes must yield Ok or a located Error — never an
   escaping exception. Biased toward markup-ish characters so the parser's
   deeper states get exercised. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total on arbitrary bytes" ~count:1000
    QCheck.(
      string_gen_of_size (Gen.int_range 0 60)
        (Gen.oneofl
           [ '<'; '>'; '/'; '!'; '?'; '&'; ';'; '"'; '\''; '['; ']'; '-';
             'a'; 'b'; ' '; '\n'; '='; '\xc3'; '\xa9'; '\x00' ]))
    (fun s ->
      (match Xml_parse.parse_string s with Ok _ | Error _ -> true)
      && (match Xml_sax.events s with Ok _ | Error _ -> true))

let prop_streaming_stats_agree =
  QCheck.Test.make ~name:"streaming stats = DOM stats" ~count:300
    arbitrary_document (fun doc ->
      let src = Xml_print.to_string doc in
      match (Xml_parse.parse_string src, Xml_stats.of_string_streaming src) with
      | Ok dom, Ok streamed -> Xml_stats.of_document dom = streamed
      | _ -> false)

let test_streaming_stats_pretty () =
  (* The same document, compact and pretty-printed, yields identical stats
     through the streaming path (whitespace policy applies). *)
  let doc =
    parse_ok "<a><b>t</b><c><d/><d x=\"1\"/></c><!--note--></a>"
  in
  let compact = Xml_stats.of_string_streaming (Xml_print.to_string doc) in
  let pretty = Xml_stats.of_string_streaming (Xml_print.to_string_pretty doc) in
  match (compact, pretty) with
  | Ok a, Ok b -> check Alcotest.bool "identical" true (a = b)
  | _ -> Alcotest.fail "streaming failed"

(* ---- Xml_stats ----------------------------------------------------------------- *)

let shop_doc =
  parse_ok
    "<shop><brand><name>M</name><products><product><name>P1</name></product><product><name>P2</name></product></products></brand></shop>"

let test_stats () =
  let stats = Xml_stats.of_document shop_doc in
  check Alcotest.int "elements" 8 stats.Xml_stats.elements;
  check Alcotest.int "distinct tags" 5 stats.Xml_stats.distinct_tags;
  check Alcotest.int "max depth" 5 stats.Xml_stats.max_depth;
  check Alcotest.int "text nodes" 3 stats.Xml_stats.text_nodes;
  let hist = Xml_stats.tag_histogram shop_doc.Xml.root in
  check Alcotest.(option int) "name x3" (Some 3) (List.assoc_opt "name" hist);
  match hist with
  | (first, 3) :: _ -> check Alcotest.string "most frequent first" "name" first
  | _ -> Alcotest.fail "histogram head"

let () =
  Alcotest.run "xsact_xml"
    [
      ( "parse-ok",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "nested text" `Quick test_parse_nested_text;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "numeric entities" `Quick
            test_parse_numeric_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments/pi" `Quick test_parse_comments_and_pi;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace dropped" `Quick
            test_parse_whitespace_dropped;
          Alcotest.test_case "mixed content" `Quick test_parse_mixed_content_kept;
          Alcotest.test_case "utf8 names" `Quick test_parse_utf8_names;
        ] );
      ( "parse-errors",
        [
          Alcotest.test_case "mismatched tag" `Quick test_err_mismatched_tag;
          Alcotest.test_case "unterminated" `Quick test_err_unterminated;
          Alcotest.test_case "bad entity" `Quick test_err_bad_entity;
          Alcotest.test_case "trailing content" `Quick
            test_err_content_after_root;
          Alcotest.test_case "duplicate attr" `Quick test_err_duplicate_attr;
          Alcotest.test_case "positions" `Quick test_err_positions;
          Alcotest.test_case "< in attr" `Quick test_err_lt_in_attr;
          Alcotest.test_case "missing file" `Quick test_parse_file_missing;
          Alcotest.test_case "nesting depth cap" `Quick test_err_too_deep;
        ] );
      ( "print",
        [
          Alcotest.test_case "escaping" `Quick test_print_escaping;
          Alcotest.test_case "cdata ]]> split" `Quick test_print_cdata_split;
          Alcotest.test_case "pretty reparses equal" `Quick
            test_pretty_idempotent_parse;
          qtest prop_roundtrip_compact;
          qtest prop_roundtrip_pretty;
        ] );
      ( "model",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "equality" `Quick test_equal_attr_order;
        ] );
      ( "dewey",
        [
          Alcotest.test_case "basics" `Quick test_dewey_basics;
          Alcotest.test_case "order" `Quick test_dewey_order;
          Alcotest.test_case "lca" `Quick test_dewey_lca;
          qtest prop_dewey_lca_sym;
          qtest prop_dewey_total_order;
        ] );
      ( "sax",
        [
          Alcotest.test_case "event stream" `Quick test_sax_events;
          Alcotest.test_case "self-closing" `Quick test_sax_self_closing;
          Alcotest.test_case "errors" `Quick test_sax_errors;
          Alcotest.test_case "fold" `Quick test_sax_fold_counts;
          qtest prop_parser_total;
          qtest prop_streaming_stats_agree;
          Alcotest.test_case "streaming stats pretty" `Quick
            test_streaming_stats_pretty;
        ] );
      ("stats", [ Alcotest.test_case "counts" `Quick test_stats ]);
    ]
