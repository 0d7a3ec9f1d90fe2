(* XSACT command-line interface: generate corpora, search them, and build
   comparison tables — the CLI equivalent of the demo's web UI. *)

open Cmdliner

(* ---- Shared arguments -------------------------------------------------- *)

let dataset_arg =
  let doc =
    Printf.sprintf "Built-in dataset to use (%s)."
      (String.concat ", " Xsact_dataset.Dataset.names)
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc = "Load the corpus from an XML file instead of a built-in dataset." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"PATH" ~doc)

let lists_arg =
  let doc = "Load the corpus from a directory of IMDB-style *.list files." in
  Arg.(value & opt (some dir) None & info [ "lists" ] ~docv:"DIR" ~doc)

let keywords_arg =
  let doc = "Keyword query." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"KEYWORDS" ~doc)

let lift_arg =
  let doc =
    "Lift results to the nearest ancestor with this tag (e.g. $(b,brand) on \
     the outdoor dataset) instead of the inferred entity."
  in
  Arg.(value & opt (some string) None & info [ "lift-to" ] ~docv:"TAG" ~doc)

let size_bound_arg =
  let doc = "Size bound L: maximum number of features per DFS." in
  Arg.(value & opt int 8 & info [ "L"; "size-bound" ] ~docv:"N" ~doc)

let algorithm_arg =
  let algs =
    List.map (fun a -> (Algorithm.to_string a, a)) Algorithm.all
  in
  let doc =
    Printf.sprintf "DFS generation method (%s)."
      (String.concat ", " (List.map fst algs))
  in
  Arg.(
    value
    & opt (enum algs) Algorithm.Multi_swap
    & info [ "a"; "algorithm" ] ~docv:"METHOD" ~doc)

let threshold_arg =
  let doc = "Differentiation threshold x%% (paper default 10)." in
  Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)

let measure_arg =
  let doc =
    "Occurrence measure: $(b,raw) counts (paper) or $(b,rate) normalized by \
     entity population."
  in
  Arg.(
    value
    & opt (enum [ ("raw", Dod.Raw); ("rate", Dod.Rate) ]) Dod.Raw
    & info [ "measure" ] ~docv:"M" ~doc)

let weight_arg =
  let doc =
    "Interestingness weights as comma-separated $(b,pattern=weight) pairs \
     matched against attribute names (e.g. $(b,--weight price=3,battery=2)); \
     unmatched types weigh 1."
  in
  Arg.(
    value
    & opt (some (list (pair ~sep:'=' string int))) None
    & info [ "weight" ] ~docv:"RULES" ~doc)

let weight_fn rules =
  match rules with
  | None -> None
  | Some rules -> Some (Weighting.by_attribute rules)

let prune_arg =
  let doc =
    "Result subtree policy: $(b,full) (whole entity), $(b,matched) (keep \
     only nested entities containing a keyword), or $(b,attributes) (direct \
     attributes only)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("full", Result_builder.Full);
             ("matched", Result_builder.Matched_entities);
             ("attributes", Result_builder.Attributes_only);
           ])
        Result_builder.Full
    & info [ "prune" ] ~docv:"MODE" ~doc)

let select_arg =
  let doc = "Comma-separated 1-based ranks of the results to compare." in
  Arg.(value & opt (some (list int)) None & info [ "select" ] ~docv:"RANKS" ~doc)

let top_arg =
  let doc = "Number of top results to use when $(b,--select) is absent." in
  Arg.(value & opt int 4 & info [ "top" ] ~docv:"N" ~doc)

let html_arg =
  let doc = "Also write the comparison table as an HTML page to this path." in
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"PATH" ~doc)

let markdown_flag =
  let doc = "Print the table as GitHub-flavored Markdown instead of a grid." in
  Arg.(value & flag & info [ "markdown" ] ~doc)

let explain_flag =
  let doc = "Also print why each differentiating row separates each pair." in
  Arg.(value & flag & info [ "explain" ] ~doc)

let seed_arg =
  let doc = "Generator seed override." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

(* ---- Corpus loading ---------------------------------------------------- *)

let load_corpus ?lists ~dataset ~file () =
  match (dataset, file, lists) with
  | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
    Error "--dataset, --file and --lists are mutually exclusive"
  | None, None, None -> Error "one of --dataset, --file or --lists is required"
  | Some name, None, None -> begin
    match Xsact_dataset.Dataset.by_name name with
    | Some ds -> Ok ds.document
    | None ->
      Error
        (Printf.sprintf "unknown dataset %S (expected one of: %s)" name
           (String.concat ", " Xsact_dataset.Dataset.names))
  end
  | None, Some path, None -> begin
    match Xml_parse.parse_file path with
    | Ok doc -> Ok doc
    | Error e -> Error (path ^ ": " ^ Xml_parse.error_to_string e)
  end
  | None, None, Some dir -> begin
    match Xsact_dataset.Imdb_list.parse_dir dir with
    | Ok movies -> Ok (Xsact_dataset.Imdb_list.document_of_movies movies)
    | Error e -> Error (dir ^ ": " ^ e)
  end

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("xsact: " ^ msg);
    exit 1

(* The SLCA pass gives each keyword one bit of an [int] mask, so a query
   with more distinct keywords cannot be searched. Every command that
   searches checks this first, instead of letting the search raise. *)
let check_keywords keywords =
  let n = List.length (Token.normalize_query keywords) in
  if n > Slca.max_keywords then
    Error
      (Printf.sprintf "query has %d distinct keywords, at most %d are supported"
         n Slca.max_keywords)
  else Ok ()

let or_die_compare = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("xsact: " ^ Error.to_string e);
    exit 1

(* Fold the CLI's flags into the unified comparison configuration. *)
let config_of ?weight ~params ~algorithm () =
  Config.default
  |> Config.with_params params
  |> Config.with_algorithm algorithm
  |> fun c -> match weight with Some w -> Config.with_weight w c | None -> c

(* ---- generate ----------------------------------------------------------- *)

let generate_cmd =
  let output_arg =
    let doc = "Output XML path." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let name_arg =
    let doc = "Dataset to generate." in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) Xsact_dataset.Dataset.names))) None
      & info [] ~docv:"DATASET" ~doc)
  in
  let scale_arg =
    let doc = "Scale factor on the default corpus size." in
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"X" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,xml) (single file) or $(b,lists) (IMDB-style \
       *.list files written into the output directory; imdb dataset only)."
    in
    Arg.(
      value
      & opt (enum [ ("xml", `Xml); ("lists", `Lists) ]) `Xml
      & info [ "format" ] ~docv:"F" ~doc)
  in
  let run name output seed scale format =
    let scaled n = max 1 (int_of_float (float_of_int n *. scale)) in
    let doc =
      match name with
      | "product-reviews" ->
        let d = Xsact_dataset.Product_reviews.default_params in
        let params =
          {
            d with
            Xsact_dataset.Product_reviews.products = scaled d.products;
            seed = Option.value seed ~default:d.seed;
          }
        in
        Xsact_dataset.Product_reviews.generate params
      | "outdoor-retailer" ->
        let d = Xsact_dataset.Outdoor_retailer.default_params in
        let params =
          {
            d with
            Xsact_dataset.Outdoor_retailer.brands = scaled d.brands;
            seed = Option.value seed ~default:d.seed;
          }
        in
        Xsact_dataset.Outdoor_retailer.generate params
      | "imdb" ->
        let d = Xsact_dataset.Imdb.default_params in
        let params =
          {
            d with
            Xsact_dataset.Imdb.movies = scaled d.movies;
            seed = Option.value seed ~default:d.seed;
          }
        in
        Xsact_dataset.Imdb.generate params
      | _ -> assert false
    in
    match format with
    | `Xml ->
      Xml_print.to_file output doc;
      Printf.printf "wrote %s\n" output
    | `Lists ->
      (match Xsact_dataset.Imdb_list.movies_of_document doc with
      | Error e ->
        prerr_endline
          ("xsact: --format lists requires the imdb corpus shape: " ^ e);
        exit 1
      | Ok movies ->
        if not (Sys.file_exists output) then Unix.mkdir output 0o755;
        Xsact_dataset.Imdb_list.write_dir output movies;
        let _, names = Xsact_dataset.Imdb_list.file_names in
        Printf.printf "wrote %s/{%s}\n" output (String.concat "," names))
  in
  let term =
    Term.(
      const run $ name_arg $ output_arg $ seed_arg $ scale_arg $ format_arg)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic corpus as an XML file.")
    term

(* ---- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run dataset file lists =
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let stats = Xml_stats.of_document doc in
    Format.printf "@[<v>%a@]@." Xml_stats.pp stats;
    print_endline "top tags:";
    List.iteri
      (fun i (tag, count) ->
        if i < 15 then Printf.printf "  %-24s %d\n" tag count)
      (Xml_stats.tag_histogram doc.Xml.root)
  in
  let term = Term.(const run $ dataset_arg $ file_arg $ lists_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print corpus statistics.") term

(* ---- search ------------------------------------------------------------- *)

let search_cmd =
  let limit_arg =
    let doc = "Maximum number of results to list." in
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let semantics_arg =
    let doc = "Match semantics: $(b,slca) (smallest LCAs) or $(b,elca)." in
    Arg.(
      value
      & opt (enum [ ("slca", Search.Slca); ("elca", Search.Elca) ]) Search.Slca
      & info [ "semantics" ] ~docv:"S" ~doc)
  in
  let scoring_arg =
    let doc = "Ranking: $(b,occurrence) or $(b,tfidf)." in
    Arg.(
      value
      & opt
          (enum [ ("occurrence", Search.Occurrence); ("tfidf", Search.Tf_idf) ])
          Search.Occurrence
      & info [ "scoring" ] ~docv:"R" ~doc)
  in
  let run dataset file lists keywords limit lift_to semantics scoring =
    or_die (check_keywords keywords);
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let engine = Search.create doc in
    let results =
      Search.query ~limit ?lift_to ~semantics ~scoring engine keywords
    in
    if results = [] then print_endline "no results"
    else
      List.iter
        (fun (r : Search.result) ->
          Printf.printf "%2d. %-40s  <%s>  score=%.2f\n" r.rank
            (Search.result_title engine r)
            r.element.Xml.tag r.score)
        results
  in
  let term =
    Term.(
      const run $ dataset_arg $ file_arg $ lists_arg $ keywords_arg
      $ limit_arg $ lift_arg $ semantics_arg $ scoring_arg)
  in
  Cmd.v (Cmd.info "search" ~doc:"Run a keyword query and list results.") term

(* ---- snippets ----------------------------------------------------------- *)

let snippets_cmd =
  let run dataset file lists keywords size_bound top lift_to =
    or_die (check_keywords keywords);
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let pipeline = Pipeline.create doc in
    let results = Pipeline.search ~limit:top ?lift_to pipeline keywords in
    if results = [] then print_endline "no results"
    else
      List.iter
        (fun r ->
          let profile = Pipeline.profile_of pipeline r in
          print_string (Snippet.to_string ~limit:size_bound profile);
          print_newline ())
        results
  in
  let term =
    Term.(
      const run $ dataset_arg $ file_arg $ lists_arg $ keywords_arg
      $ size_bound_arg $ top_arg $ lift_arg)
  in
  Cmd.v
    (Cmd.info "snippets"
       ~doc:"Print eXtract-style snippets (independent per-result summaries).")
    term

(* ---- compare ------------------------------------------------------------ *)

let compare_cmd =
  let stats_flag =
    let doc = "Also print the per-result feature statistics (Figure 1 style)." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run dataset file lists keywords size_bound algorithm threshold measure
      weight prune select top lift_to html markdown explain stats =
    or_die (check_keywords keywords);
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let pipeline = Pipeline.create doc in
    let params = { Dod.threshold_pct = threshold; measure } in
    let config =
      config_of ?weight:(weight_fn weight) ~params ~algorithm ()
    in
    let comparison =
      or_die_compare
        (Pipeline.compare ~config ?lift_to ~prune ?select ~top pipeline
           ~keywords ~size_bound)
    in
    if stats then
      Array.iter
        (fun profile ->
          print_string (Render_text.result_stats profile);
          print_newline ())
        comparison.Pipeline.profiles;
    if markdown then
      print_string (Render_markdown.table comparison.Pipeline.table)
    else print_string (Render_text.table comparison.Pipeline.table);
    if explain then begin
      let context =
        Dod.make_context ~params ~weight:config.Config.weight
          comparison.Pipeline.profiles
      in
      print_newline ();
      print_string (Render_text.explanations context comparison.Pipeline.dfss)
    end;
    Printf.printf "algorithm: %s   generation time: %.4fs\n"
      (Algorithm.to_string comparison.Pipeline.algorithm)
      comparison.Pipeline.elapsed_s;
    match html with
    | None -> ()
    | Some path ->
      Render_html.to_file path
        ~title:(Printf.sprintf "XSACT: %s" keywords)
        comparison.Pipeline.table;
      Printf.printf "wrote %s\n" path
  in
  let term =
    Term.(
      const run $ dataset_arg $ file_arg $ lists_arg $ keywords_arg
      $ size_bound_arg $ algorithm_arg $ threshold_arg $ measure_arg
      $ weight_arg $ prune_arg $ select_arg $ top_arg $ lift_arg $ html_arg
      $ markdown_flag $ explain_flag $ stats_flag)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Search and build a comparison table for selected results.")
    term

(* ---- categories --------------------------------------------------------- *)

let categories_cmd =
  let run dataset file lists =
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let engine = Search.create doc in
    List.iter
      (fun (tag, cat) ->
        Printf.printf "%-24s %s\n" tag (Node_category.category_to_string cat))
      (Node_category.tags (Search.categories engine))
  in
  let term = Term.(const run $ dataset_arg $ file_arg $ lists_arg) in
  Cmd.v
    (Cmd.info "categories"
       ~doc:"Show the inferred entity/attribute/connection categories.")
    term

(* ---- repl --------------------------------------------------------------- *)

(* An interactive loop modelled on the demo UI: search, tick results, set
   the table size, compare. Reads commands from stdin, so it also works
   scripted: `printf 'search gps\nselect 1 2\ncompare\n' | xsact repl -d
   product-reviews`. *)
let repl_cmd =
  let run dataset file lists =
    let doc = or_die (load_corpus ?lists ~dataset ~file ()) in
    let pipeline = Pipeline.create doc in
    let engine = Pipeline.engine pipeline in
    let results = ref [] in
    let selection = ref [] in
    let size_bound = ref 8 in
    let algorithm = ref Algorithm.Multi_swap in
    let weight = ref None in
    let prune = ref Result_builder.Full in
    let lift = ref None in
    let keywords = ref "" in
    let print_results () =
      if !results = [] then print_endline "  (no results)"
      else
        List.iter
          (fun (r : Search.result) ->
            Printf.printf "  [%d]%s %s\n" r.Search.rank
              (if List.mem r.Search.rank !selection then "*" else " ")
              (Search.result_title engine r))
          !results
    in
    let help () =
      print_string
        {|commands:
  search <keywords>      run a query
  lift <tag>|off         compare at a coarser granularity (e.g. brand)
  select <ranks...>      tick result checkboxes (1-based)
  size <L>               set the table size bound (default 8)
  algorithm <name>       topk|greedy|single-swap|multi-swap|annealing|restarts
  weight <pat=w,...>|off interestingness weights on attribute patterns
  prune full|matched|attributes   result subtree policy
  stats <rank>           Figure-1 style statistics of one result
  compare                build the comparison table for the selection
  help                   this text
  quit                   leave
|}
    in
    let compare () =
      if List.length !selection < 2 then
        print_endline "  select at least two results first"
      else
        let config =
          config_of ?weight:!weight ~params:Dod.default_params
            ~algorithm:!algorithm ()
        in
        match
          Pipeline.compare ~config ?lift_to:!lift ~prune:!prune
            ~select:!selection pipeline ~keywords:!keywords
            ~size_bound:!size_bound
        with
        | Ok c ->
          print_string (Render_text.table c.Pipeline.table);
          Printf.printf "  (%s, %.4fs)\n"
            (Algorithm.to_string c.Pipeline.algorithm)
            c.Pipeline.elapsed_s
        | Error e -> Printf.printf "  error: %s\n" (Error.to_string e)
    in
    let dispatch line =
      let line = String.trim line in
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    print_endline "xsact repl — type 'help' for commands";
    (try
       while true do
         print_string "> ";
         let line = read_line () in
         match dispatch line with
         | "", _ -> ()
         | "quit", _ | "exit", _ -> raise Exit
         | "help", _ -> help ()
         | "search", kw -> (
           match check_keywords kw with
           | Error msg -> Printf.printf "  error: %s\n" msg
           | Ok () ->
             keywords := kw;
             selection := [];
             results := Search.query ~limit:20 ?lift_to:!lift engine kw;
             print_results ())
         | "lift", "off" -> lift := None
         | "lift", tag -> lift := Some tag
         | "select", ranks ->
           selection :=
             String.split_on_char ' ' ranks
             |> List.filter_map int_of_string_opt;
           print_results ()
         | "size", n -> (
           match int_of_string_opt n with
           | Some n when n >= 1 -> size_bound := n
           | _ -> print_endline "  usage: size <positive int>")
         | "algorithm", name -> (
           match Algorithm.of_string name with
           | Some a -> algorithm := a
           | None -> print_endline "  unknown algorithm")
         | "weight", "off" -> weight := None
         | "weight", rules ->
           let parsed =
             String.split_on_char ',' rules
             |> List.filter_map (fun rule ->
                    match String.split_on_char '=' rule with
                    | [ pat; w ] ->
                      Option.map (fun w -> (String.trim pat, w))
                        (int_of_string_opt (String.trim w))
                    | _ -> None)
           in
           if parsed = [] then print_endline "  usage: weight pat=w,pat=w"
           else weight := Some (Weighting.by_attribute parsed)
         | "prune", mode -> (
           match Result_builder.mode_of_string mode with
           | Some m -> prune := m
           | None -> print_endline "  usage: prune full|matched|attributes")
         | "stats", rank -> (
           match int_of_string_opt rank with
           | Some rank when rank >= 1 && rank <= List.length !results ->
             let r = List.nth !results (rank - 1) in
             print_string
               (Render_text.result_stats (Pipeline.profile_of pipeline r))
           | _ -> print_endline "  usage: stats <rank>")
         | "compare", _ -> compare ()
         | cmd, _ -> Printf.printf "  unknown command %S (try 'help')\n" cmd
       done
     with Exit | End_of_file -> print_endline "bye")
  in
  let term = Term.(const run $ dataset_arg $ file_arg $ lists_arg) in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive search-and-compare loop (the demo UI).")
    term

let main_cmd =
  let doc = "differentiate and compare structured search results" in
  let info = Cmd.info "xsact" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ generate_cmd; stats_cmd; search_cmd; snippets_cmd; compare_cmd;
      categories_cmd; repl_cmd ]

let setup_logging () =
  (* XSACT_VERBOSE=debug|info|warning enables the library logs (search
     indexing, SLCA counts, comparison summaries). *)
  match Sys.getenv_opt "XSACT_VERBOSE" with
  | None -> ()
  | Some level ->
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (match String.lowercase_ascii level with
      | "debug" -> Some Logs.Debug
      | "warning" -> Some Logs.Warning
      | _ -> Some Logs.Info)

let () =
  setup_logging ();
  exit (Cmd.eval main_cmd)
