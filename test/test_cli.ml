(* Integration tests for the two executables, run as real subprocesses.
   The binaries are declared as dune deps of this test, so their paths are
   stable relative to the build directory. *)

let check = Alcotest.check
let contains = Xsact_util.Textutil.contains_substring

(* Resolve the binaries relative to this test executable so the suite works
   both under `dune runtest` and `dune exec test/test_cli.exe`. *)
let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    name

let cli = bin "xsact_cli.exe"
let site = bin "xsact_site.exe"

(* Run a command, capture stdout+stderr, return (exit_code, output). *)
let run cmd =
  let tmp = Filename.temp_file "xsact_cli_test" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd tmp) in
  let ic = open_in_bin tmp in
  let output =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove tmp;
  (code, output)

let run_ok cmd =
  let code, output = run cmd in
  if code <> 0 then
    Alcotest.failf "command failed (%d): %s\n%s" code cmd output;
  output

let test_search () =
  let out = run_ok (cli ^ " search -d imdb -q 'thriller heist' --limit 3") in
  check Alcotest.bool "lists movies" true (contains out "<movie>");
  check Alcotest.bool "ranked" true (contains out " 1. ")

let test_search_no_results () =
  let out = run_ok (cli ^ " search -d imdb -q zzzznope") in
  check Alcotest.bool "no results message" true (contains out "no results")

let test_compare () =
  let out =
    run_ok (cli ^ " compare -d imdb -q 'thriller heist' -L 6 --top 3 -a multi-swap")
  in
  check Alcotest.bool "table rendered" true (contains out "feature type");
  check Alcotest.bool "dod footer" true (contains out "DoD =");
  check Alcotest.bool "algorithm line" true (contains out "multi-swap")

let test_compare_html () =
  let tmp = Filename.temp_file "xsact_cmp" ".html" in
  let _ =
    run_ok
      (Printf.sprintf "%s compare -d product-reviews -q gps -L 6 --top 2 --html %s"
         cli tmp)
  in
  let ic = open_in_bin tmp in
  let html =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove tmp;
  check Alcotest.bool "html document" true (contains html "<!DOCTYPE html>");
  check Alcotest.bool "dod shown" true (contains html "Degree of differentiation")

let test_compare_errors () =
  let code, output = run (cli ^ " compare -d imdb -q zzzznope -L 6") in
  check Alcotest.bool "nonzero exit" true (code <> 0);
  check Alcotest.bool "error message" true (contains output "no results");
  let code2, output2 = run (cli ^ " compare -q x -L 6") in
  check Alcotest.bool "missing corpus rejected" true (code2 <> 0);
  check Alcotest.bool "mentions required option" true
    (contains output2 "--dataset" || contains output2 "required")

let test_stats_and_categories () =
  let out = run_ok (cli ^ " stats -d outdoor-retailer") in
  check Alcotest.bool "element count" true (contains out "elements:");
  check Alcotest.bool "tag histogram" true (contains out "top tags:");
  let cats = run_ok (cli ^ " categories -d outdoor-retailer") in
  check Alcotest.bool "brand entity" true (contains cats "brand");
  check Alcotest.bool "entity label" true (contains cats "entity")

let test_snippets () =
  let out = run_ok (cli ^ " snippets -d imdb -q spielberg -L 4 --top 2") in
  (* two snippet blocks, each with indented "attribute: value" lines *)
  let indented =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 2 && l.[0] = ' ' && l.[1] = ' ')
  in
  check Alcotest.int "4 features per snippet, 2 snippets" 8
    (List.length indented);
  List.iter
    (fun l -> check Alcotest.bool "attr: value shape" true (contains l ": "))
    indented

let test_generate_roundtrip () =
  let tmp = Filename.temp_file "xsact_corpus" ".xml" in
  let _ =
    run_ok (Printf.sprintf "%s generate imdb -o %s --scale 0.05" cli tmp)
  in
  let out =
    run_ok (Printf.sprintf "%s search -f %s -q drama --limit 2" cli tmp)
  in
  Sys.remove tmp;
  check Alcotest.bool "file corpus searchable" true (contains out "<movie>")

let test_generate_lists_roundtrip () =
  let dir = Filename.temp_file "xsact_lists_cli" "" in
  Sys.remove dir;
  let _ =
    run_ok
      (Printf.sprintf "%s generate imdb -o %s --format lists --scale 0.05" cli dir)
  in
  let out =
    run_ok (Printf.sprintf "%s compare --lists %s -q drama -L 4 --top 2" cli dir)
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  check Alcotest.bool "lists corpus comparable" true (contains out "DoD =")

let test_explain_option () =
  let out =
    run_ok
      (cli ^ " compare -d product-reviews -q 'tomtom gps' -L 6 --top 2 --explain")
  in
  check Alcotest.bool "explanation lines" true (contains out " vs ");
  check Alcotest.bool "measures shown" true (contains out "measures")

let test_markdown_option () =
  let out =
    run_ok (cli ^ " compare -d imdb -q spielberg -L 5 --top 2 --markdown")
  in
  check Alcotest.bool "markdown table" true (contains out "| feature type |");
  check Alcotest.bool "markdown footer" true (contains out "*DoD =")

let test_weight_option () =
  let out =
    run_ok
      (cli
     ^ " compare -d imdb -q 'horror vampire' -L 6 --top 3 --weight title=5")
  in
  check Alcotest.bool "weighted run renders" true (contains out "DoD =")

let test_bad_dataset () =
  let code, output = run (cli ^ " stats -d nope") in
  check Alcotest.bool "nonzero exit" true (code <> 0);
  check Alcotest.bool "helpful message" true (contains output "unknown dataset")

let test_repl_scripted () =
  let script =
    "search tomtom gps\nselect 1 2\nsize 6\nweight battery=3\ncompare\nstats 1\nprune matched\nhelp\nquit\n"
  in
  let out =
    run_ok
      (Printf.sprintf "printf '%s' | %s repl -d product-reviews"
         (String.concat "\\n" (String.split_on_char '\n' script))
         cli)
  in
  check Alcotest.bool "banner" true (contains out "xsact repl");
  check Alcotest.bool "results listed" true (contains out "TomTom");
  check Alcotest.bool "selection marks" true (contains out "]*");
  check Alcotest.bool "table rendered" true (contains out "DoD =");
  check Alcotest.bool "stats block" true (contains out "ATTR:VALUE");
  check Alcotest.bool "help text" true (contains out "commands:");
  check Alcotest.bool "clean exit" true (contains out "bye")

let test_repl_errors () =
  let out =
    run_ok
      (Printf.sprintf
         "printf 'compare\\nbogus\\nsize x\\nquit\\n' | %s repl -d imdb" cli)
  in
  check Alcotest.bool "needs selection" true
    (contains out "select at least two");
  check Alcotest.bool "unknown command" true (contains out "unknown command");
  check Alcotest.bool "usage message" true (contains out "usage: size")

(* One keyword past the SLCA mask width: every searching command answers
   with a one-line error, and the REPL keeps running. *)
let too_many_words =
  String.concat " " (List.init 64 (Printf.sprintf "zzq%d"))

let test_keyword_bound () =
  List.iter
    (fun cmd ->
      let code, output =
        run (Printf.sprintf "%s %s -d imdb -q '%s'" cli cmd too_many_words)
      in
      check Alcotest.bool (cmd ^ ": nonzero exit") true (code <> 0);
      check Alcotest.bool (cmd ^ ": no crash") false
        (contains output "uncaught exception");
      check Alcotest.bool (cmd ^ ": names the bound") true
        (contains output "at most 63"))
    [ "search"; "compare"; "snippets" ]

let test_repl_keyword_bound () =
  let out =
    run_ok
      (Printf.sprintf "printf 'search %s\nsearch gps\nquit\n' | %s repl -d product-reviews"
         too_many_words cli)
  in
  check Alcotest.bool "error printed" true (contains out "at most 63");
  check Alcotest.bool "no crash" false (contains out "uncaught exception");
  check Alcotest.bool "next search lists results" true (contains out "[1]");
  check Alcotest.bool "clean exit" true (contains out "bye")

let test_site_generation () =
  let dir = Filename.temp_file "xsact_site_test" "" in
  Sys.remove dir;
  let _ = run_ok (Printf.sprintf "%s -o %s -L 6 --top 3" site dir) in
  check Alcotest.bool "index exists" true
    (Sys.file_exists (Filename.concat dir "index.html"));
  check Alcotest.bool "imdb pages" true
    (Sys.file_exists (Filename.concat dir "imdb/index.html"));
  let count = ref 0 in
  let rec sweep d =
    Array.iter
      (fun entry ->
        let path = Filename.concat d entry in
        if Sys.is_directory path then sweep path
        else begin
          incr count;
          Sys.remove path
        end)
      (Sys.readdir d);
    Unix.rmdir d
  in
  sweep dir;
  check Alcotest.bool "many pages" true (!count > 10)

let () =
  Alcotest.run "xsact_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "search" `Slow test_search;
          Alcotest.test_case "search no results" `Slow test_search_no_results;
          Alcotest.test_case "compare" `Slow test_compare;
          Alcotest.test_case "compare html" `Slow test_compare_html;
          Alcotest.test_case "compare errors" `Slow test_compare_errors;
          Alcotest.test_case "stats/categories" `Slow test_stats_and_categories;
          Alcotest.test_case "snippets" `Slow test_snippets;
          Alcotest.test_case "generate xml" `Slow test_generate_roundtrip;
          Alcotest.test_case "generate lists" `Slow test_generate_lists_roundtrip;
          Alcotest.test_case "weight option" `Slow test_weight_option;
          Alcotest.test_case "explain option" `Slow test_explain_option;
          Alcotest.test_case "markdown option" `Slow test_markdown_option;
          Alcotest.test_case "bad dataset" `Slow test_bad_dataset;
          Alcotest.test_case "repl scripted" `Slow test_repl_scripted;
          Alcotest.test_case "repl errors" `Slow test_repl_errors;
          Alcotest.test_case "keyword bound" `Slow test_keyword_bound;
          Alcotest.test_case "repl keyword bound" `Slow test_repl_keyword_bound;
        ] );
      ("site", [ Alcotest.test_case "generation" `Slow test_site_generation ]);
    ]
