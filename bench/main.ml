(* XSACT benchmark harness.

   Reproduces every figure of the paper that carries data, plus the
   extension experiments E1-E9 indexed in DESIGN.md. Run everything with

     dune exec bench/main.exe

   or name specific targets:

     dune exec bench/main.exe -- fig4a_dod ext_sweep_l

   `micro` runs the Bechamel micro-benchmarks (one Test.make per figure's
   kernel). Absolute numbers will not match 2009 hardware; EXPERIMENTS.md
   records the shape comparison against the paper. *)

open Xsact_util
module Workload = Xsact_workload.Workload

let section title =
  Printf.printf "\n=== %s ===\n\n" title

let hr () = print_newline ()

(* ---- Shared workloads (built lazily, reused across targets) ------------- *)

let imdb = lazy (Workload.imdb_qm ~top:5 ())

let qm_instances () = (Lazy.force imdb).Workload.queries

let swap_algorithms =
  [ Algorithm.Single_swap; Algorithm.Multi_swap ]

let report_algorithms =
  [ Algorithm.Topk; Algorithm.Greedy; Algorithm.Single_swap; Algorithm.Multi_swap ]

let dod_of alg context ~limit = Dod.total context (Algorithm.generate alg context ~limit)

(* ---- Figure 1: result statistics ----------------------------------------- *)

let fig1_stats () =
  section
    "Figure 1 -- result fragments & statistics for query {TomTom, GPS}";
  Array.iter
    (fun profile ->
      print_string (Render_text.result_stats ~top:8 profile);
      hr ())
    (Workload.paper_gps_profiles ())

(* ---- Figure 2: comparison table ------------------------------------------- *)

let fig2_table () =
  section "Figure 2 -- XSACT comparison table for the Figure 1 results (L = 6)";
  let profiles = Workload.paper_gps_profiles () in
  let context = Dod.make_context profiles in
  let limit = 6 in
  let dfss = Multi_swap.generate context ~limit in
  let table = Table.build ~size_bound:limit context dfss in
  print_string (Render_text.table table);
  Printf.printf "\n%4s | %9s %12s %10s   (paper, at its L: 2 -> 5)\n" "L"
    "topk DoD" "eXtract DoD" "XSACT DoD";
  List.iter
    (fun limit ->
      let extract_dfss =
        Array.map
          (Snippet.query_biased_dfs ~keywords:"tomtom gps" ~limit)
          profiles
      in
      Printf.printf "%4d | %9d %12d %10d\n" limit
        (Dod.total context (Topk.generate context ~limit))
        (Dod.total context extract_dfss)
        (Dod.total context (Multi_swap.generate context ~limit)))
    [ 4; 6; 8; 10 ]

(* ---- Figure 4(a): DoD over QM1..QM8 ---------------------------------------- *)

let fig4a_dod () =
  section "Figure 4(a) -- quality of DFSs: DoD per query (IMDB, top 5, L = 8)";
  Printf.printf "%-6s %-22s %8s | %6s %7s %12s %11s\n" "query" "keywords"
    "results" "topk" "greedy" "single-swap" "multi-swap";
  let totals = Array.make (List.length report_algorithms) 0 in
  List.iter
    (fun (inst : Workload.instance) ->
      let context = Dod.make_context inst.Workload.profiles in
      let dods = List.map (fun a -> dod_of a context ~limit:8) report_algorithms in
      List.iteri (fun i d -> totals.(i) <- totals.(i) + d) dods;
      match dods with
      | [ topk; greedy; single; multi ] ->
        Printf.printf "%-6s %-22s %8d | %6d %7d %12d %11d\n" inst.Workload.label
          inst.Workload.keywords inst.Workload.result_count topk greedy single
          multi
      | _ -> assert false)
    (qm_instances ());
  (match Array.to_list totals with
  | [ topk; greedy; single; multi ] ->
    Printf.printf "%-6s %-22s %8s | %6d %7d %12d %11d\n" "total" "" "" topk
      greedy single multi
  | _ -> assert false);
  print_endline
    "\nshape check (paper): multi-swap >= single-swap >> snippet-style baselines"

(* ---- Figure 4(b): processing time over QM1..QM8 ------------------------------ *)

let fig4b_time () =
  section
    "Figure 4(b) -- processing time (s) per query (IMDB, top 5, L = 8; median \
     of 7 runs)";
  Printf.printf "%-6s %-22s | %14s %14s\n" "query" "keywords" "single-swap"
    "multi-swap";
  List.iter
    (fun (inst : Workload.instance) ->
      let context = Dod.make_context inst.Workload.profiles in
      let time alg =
        let _, stats =
          Timing.time ~warmup:2 ~runs:7 (fun () ->
              Algorithm.generate alg context ~limit:8)
        in
        stats.Timing.median_s
      in
      let times = List.map time swap_algorithms in
      match times with
      | [ single; multi ] ->
        Printf.printf "%-6s %-22s | %14.6f %14.6f\n" inst.Workload.label
          inst.Workload.keywords single multi
      | _ -> assert false)
    (qm_instances ());
  print_endline
    "\nshape check (paper): both well under interactive latency; single-swap \
     usually faster, multi-swap occasionally ahead"

(* ---- Demo Section 3: Outdoor Retailer brand comparison ------------------------ *)

let demo_outdoor () =
  section "Demo Section 3 -- Outdoor Retailer: brand focuses for 'men jackets'";
  let dataset = Xsact_dataset.Dataset.outdoor_retailer () in
  let prepared = Workload.prepare ~top:3 ~lift_to:"brand" dataset in
  match
    List.find_opt
      (fun (i : Workload.instance) -> i.Workload.label = "QO1")
      prepared.Workload.queries
  with
  | None -> print_endline "QO1 unavailable"
  | Some inst ->
    let context = Dod.make_context inst.Workload.profiles in
    let dfss = Multi_swap.generate context ~limit:9 in
    print_string (Render_text.table (Table.build ~size_bound:9 context dfss));
    Printf.printf "\nDoD = %d across %d brands\n" (Dod.total context dfss)
      (Array.length inst.Workload.profiles)

(* ---- E1: sweep the size bound L ------------------------------------------------ *)

let ext_sweep_l () =
  section "E1 -- DoD and time vs size bound L (IMDB QM4, top 5)";
  match
    List.find_opt
      (fun (i : Workload.instance) -> i.Workload.label = "QM4")
      (qm_instances ())
  with
  | None -> print_endline "QM4 unavailable"
  | Some inst ->
    let context = Dod.make_context inst.Workload.profiles in
    Printf.printf "%4s | %6s %12s %11s | %12s %11s\n" "L" "topk" "single-dod"
      "multi-dod" "single-time" "multi-time";
    List.iter
      (fun limit ->
        let time_and_dod alg =
          let dfss, stats =
            Timing.time ~warmup:1 ~runs:5 (fun () ->
                Algorithm.generate alg context ~limit)
          in
          (Dod.total context dfss, stats.Timing.median_s)
        in
        let topk = dod_of Algorithm.Topk context ~limit in
        let sd, st = time_and_dod Algorithm.Single_swap in
        let md, mt = time_and_dod Algorithm.Multi_swap in
        Printf.printf "%4d | %6d %12d %11d | %11.6fs %10.6fs\n" limit topk sd
          md st mt)
      [ 2; 4; 6; 8; 12; 16; 20; 24 ]

(* ---- E2: sweep the number of compared results n --------------------------------- *)

let ext_sweep_n () =
  section "E2 -- DoD and time vs number of compared results (IMDB 'action', L = 8)";
  let prepared = Lazy.force imdb in
  let pipeline = prepared.Workload.pipeline in
  Printf.printf "%4s | %6s %12s %11s | %12s %11s\n" "n" "topk" "single-dod"
    "multi-dod" "single-time" "multi-time";
  List.iter
    (fun n ->
      match Workload.instances ~top:n pipeline [ ("Q", "action") ] with
      | [ inst ] when Array.length inst.Workload.profiles = n ->
        let context = Dod.make_context inst.Workload.profiles in
        let time_and_dod alg =
          let dfss, stats =
            Timing.time ~warmup:1 ~runs:5 (fun () ->
                Algorithm.generate alg context ~limit:8)
          in
          (Dod.total context dfss, stats.Timing.median_s)
        in
        let topk = dod_of Algorithm.Topk context ~limit:8 in
        let sd, st = time_and_dod Algorithm.Single_swap in
        let md, mt = time_and_dod Algorithm.Multi_swap in
        Printf.printf "%4d | %6d %12d %11d | %11.6fs %10.6fs\n" n topk sd md st
          mt
      | _ -> Printf.printf "%4d | (not enough results)\n" n)
    [ 2; 3; 4; 6; 8; 10 ]

(* ---- E3: approximation quality vs the exhaustive optimum ------------------------- *)

let ext_optimality () =
  section
    "E3 -- quality vs exhaustive optimum (60 random small instances, L = 4)";
  let instances = ref 0 in
  let sums = Array.make (List.length report_algorithms) 0.0 in
  let hits = Array.make (List.length report_algorithms) 0 in
  for seed = 0 to 59 do
    let profiles =
      Workload.synthetic_profiles ~seed ~results:2 ~entities:1
        ~types_per_entity:3 ~values_per_type:2 ~max_count:3
    in
    let context = Dod.make_context profiles in
    match Exhaustive.optimum ~max_states:500_000 context ~limit:4 with
    | exception Exhaustive.Too_large _ -> ()
    | 0 -> () (* nothing differentiates; ratios undefined *)
    | opt ->
      incr instances;
      List.iteri
        (fun i alg ->
          let d = dod_of alg context ~limit:4 in
          sums.(i) <- sums.(i) +. (float_of_int d /. float_of_int opt);
          if d = opt then hits.(i) <- hits.(i) + 1)
        report_algorithms
  done;
  Printf.printf "instances with a positive optimum: %d\n\n" !instances;
  Printf.printf "%-12s | %10s %10s\n" "method" "avg ratio" "% optimal";
  List.iteri
    (fun i alg ->
      Printf.printf "%-12s | %10.3f %9.0f%%\n" (Algorithm.to_string alg)
        (sums.(i) /. float_of_int !instances)
        (100.0 *. float_of_int hits.(i) /. float_of_int !instances))
    report_algorithms

(* ---- E4: differentiation threshold sensitivity ------------------------------------ *)

let ext_threshold () =
  section
    "E4 -- DoD vs differentiation threshold x% (product reviews 'gps', top 4, \
     L = 8)";
  (* The movie corpus has unit counts, so x only matters on data with real
     occurrence statistics: the review corpus (counts like 8/11 vs 38/68). *)
  let dataset = Xsact_dataset.Dataset.product_reviews () in
  let prepared = Workload.prepare ~top:4 dataset in
  match
    List.find_opt
      (fun (i : Workload.instance) -> i.Workload.label = "QP3")
      prepared.Workload.queries
  with
  | None -> print_endline "QP3 unavailable"
  | Some inst ->
    Printf.printf "%6s | %6s %12s %11s\n" "x%" "topk" "single-swap" "multi-swap";
    List.iter
      (fun threshold_pct ->
        let params = { Dod.threshold_pct; measure = Dod.Raw } in
        let context = Dod.make_context ~params inst.Workload.profiles in
        Printf.printf "%6.0f | %6d %12d %11d\n" threshold_pct
          (dod_of Algorithm.Topk context ~limit:8)
          (dod_of Algorithm.Single_swap context ~limit:8)
          (dod_of Algorithm.Multi_swap context ~limit:8))
      [ 0.0; 5.0; 10.0; 25.0; 50.0; 100.0; 200.0; 400.0 ]

(* ---- E4b: raw vs rate occurrence measure ------------------------------------------- *)

let ext_measure () =
  section
    "E4b -- raw counts vs population-normalized rates (product reviews, \
     'gps', top 4, L = 8)";
  let dataset = Xsact_dataset.Dataset.product_reviews () in
  let prepared = Workload.prepare ~top:4 dataset in
  Printf.printf "%-6s %-14s | %12s %12s\n" "query" "keywords" "raw DoD"
    "rate DoD";
  List.iter
    (fun (inst : Workload.instance) ->
      let dod measure =
        let params = { Dod.threshold_pct = 10.0; measure } in
        let context = Dod.make_context ~params inst.Workload.profiles in
        dod_of Algorithm.Multi_swap context ~limit:8
      in
      Printf.printf "%-6s %-14s | %12d %12d\n" inst.Workload.label
        inst.Workload.keywords (dod Dod.Raw) (dod Dod.Rate))
    prepared.Workload.queries

(* ---- E5: scalability with corpus size ------------------------------------------------ *)

let ext_scale () =
  section
    "E5 -- end-to-end scalability with corpus size (IMDB, query 'action', \
     top 5, L = 8)";
  Printf.printf "%8s %9s | %11s %8s %8s | %8s %8s %8s %11s\n" "movies"
    "elements" "index-build" "boot-ms" "boot-KiB" "query-ms" "scan-ms"
    "walk-ms" "extract+DFS";
  List.iter
    (fun movies ->
      let doc =
        Xsact_dataset.Imdb.generate
          { Xsact_dataset.Imdb.default_params with movies }
      in
      let elements = (Xml_stats.of_document doc).Xml_stats.elements in
      let engine, build_stats =
        Timing.time ~warmup:0 ~runs:3 (fun () -> Search.create doc)
      in
      (* the boot pass, and what its columns add to the engine's heap *)
      let columns, boot_stats =
        Timing.time ~warmup:1 ~runs:5 (fun () -> Extractor.columns engine)
      in
      let boot_kib =
        (Obj.reachable_words (Obj.repr (engine, columns))
        - Obj.reachable_words (Obj.repr engine))
        * (Sys.word_size / 8) / 1024
      in
      let results, query_stats =
        Timing.time ~warmup:1 ~runs:5 (fun () ->
            Search.query ~limit:5 engine "action")
      in
      let labelled =
        List.map (fun r -> (Search.result_title engine r, r)) results
      in
      let scan () =
        Array.of_list
          (List.map
             (fun (label, (r : Search.result)) ->
               Extractor.scan columns ~label r.node_id)
             labelled)
      in
      let _, scan_stats = Timing.time ~warmup:1 ~runs:5 scan in
      let _, walk_stats =
        Timing.time ~warmup:1 ~runs:5 (fun () ->
            List.map
              (fun (label, (r : Search.result)) ->
                Extractor.extract ~categories:(Search.categories engine)
                  ~label r.element)
              labelled)
      in
      let _, compare_stats =
        Timing.time ~warmup:1 ~runs:5 (fun () ->
            let context = Dod.make_context (scan ()) in
            Multi_swap.generate context ~limit:8)
      in
      Printf.printf "%8d %9d | %10.4fs %8.2f %8d | %8.3f %8.3f %8.3f %10.4fs\n"
        movies elements build_stats.Timing.median_s
        (1000.0 *. boot_stats.Timing.median_s)
        boot_kib
        (1000.0 *. query_stats.Timing.median_s)
        (1000.0 *. scan_stats.Timing.median_s)
        (1000.0 *. walk_stats.Timing.median_s)
        compare_stats.Timing.median_s)
    [ 250; 500; 1000; 2000; 4000 ]

(* ---- E6: stochastic optimizers vs the swap algorithms ----------------------------------- *)

let ext_stochastic () =
  section
    "E6 -- stochastic optimizers vs local optima (tie-rich synthetic \
     instances, 5 results, L = 5)";
  Printf.printf "%6s | %6s %12s %11s %10s %9s\n" "seed" "topk" "single-swap"
    "multi-swap" "annealing" "restarts";
  let sums = Array.make 5 0 in
  List.iter
    (fun seed ->
      let profiles =
        Workload.synthetic_profiles ~seed ~results:5 ~entities:1
          ~types_per_entity:8 ~values_per_type:5 ~max_count:2
      in
      let context = Dod.make_context profiles in
      let values =
        List.map
          (fun alg -> dod_of alg context ~limit:5)
          [
            Algorithm.Topk; Algorithm.Single_swap; Algorithm.Multi_swap;
            Algorithm.Annealing; Algorithm.Restarts;
          ]
      in
      List.iteri (fun i v -> sums.(i) <- sums.(i) + v) values;
      match values with
      | [ a; b; c; d; e ] ->
        Printf.printf "%6d | %6d %12d %11d %10d %9d\n" seed a b c d e
      | _ -> assert false)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  (match Array.to_list sums with
  | [ a; b; c; d; e ] ->
    Printf.printf "%6s | %6d %12d %11d %10d %9d\n" "total" a b c d e
  | _ -> assert false);
  print_endline
    "\nshape check: the DP's multi-feature reshapes and the stochastic \
     probes recover DoD that single moves leave behind"

(* ---- E7: incremental sessions vs recomputation -------------------------------------------- *)

let ext_incremental () =
  section
    "E7 -- interactive sessions: warm-started updates vs from-scratch \
     (IMDB 'action', L = 8)";
  let prepared = Lazy.force imdb in
  match
    Workload.instances ~top:10 prepared.Workload.pipeline [ ("Q", "action") ]
  with
  | [ inst ] ->
    let profiles = Array.to_list inst.Workload.profiles in
    let first_three = List.filteri (fun i _ -> i < 3) profiles in
    Printf.printf "%-28s | %10s %8s\n" "operation" "time" "DoD";
    let time_op label f =
      let result, stats = Timing.time ~warmup:1 ~runs:5 f in
      Printf.printf "%-28s | %9.5fs %8d\n" label stats.Timing.median_s
        (match result with Ok s -> Session.dod s | Error _ -> -1);
      result
    in
    let session =
      time_op "create (3 results)" (fun () ->
          Session.create ~size_bound:8 first_three)
    in
    (match session with
    | Error e -> print_endline (Error.to_string e)
    | Ok session ->
      let fourth = List.nth profiles 3 in
      let s4 =
        time_op "add 4th (warm)" (fun () ->
            Session.apply session [ Session.Add fourth ])
      in
      let _ =
        time_op "cold re-create (4 results)" (fun () ->
            Session.create ~size_bound:8 (first_three @ [ fourth ]))
      in
      (match s4 with
      | Error e -> print_endline (Error.to_string e)
      | Ok s4 ->
        ignore
          (time_op "set L 8 -> 12 (warm)" (fun () ->
               Session.apply s4 [ Session.Set_size_bound 12 ]))))
  | _ -> print_endline "query unavailable"

(* ---- E8: interestingness weighting ablation ------------------------------------------------ *)

let ext_weighting () =
  section
    "E8 -- interestingness weighting (paper example, L = 6)";
  let profiles = Workload.paper_gps_profiles () in
  let run label weight =
    let context = Dod.make_context ?weight profiles in
    let dfss = Multi_swap.generate context ~limit:6 in
    let table = Table.build context dfss in
    let has pat =
      List.exists
        (fun (row : Table.row) ->
          Xsact_util.Textutil.contains_substring
            row.Table.ftype.Feature.attribute pat
          && row.Table.differentiating)
        table.Table.rows
    in
    Printf.printf
      "%-30s | weighted DoD %4d | rating differentiates: %-5b | compact: %b\n"
      label (Dod.total context dfss) (has "rating") (has "compact")
  in
  run "uniform" None;
  run "compact x4" (Some (Weighting.by_attribute [ ("compact", 4) ]));
  run "rating x10" (Some (Weighting.by_attribute [ ("rating", 10) ]));
  run "evidence" (Some (Weighting.evidence profiles));
  print_endline
    "\nshape check: weighting a differentiating type multiplies its DoD \
     contribution; a heavy weight pulls an otherwise-skipped type (rating) \
     into both DFSs"

(* ---- E9: ablation of the type-spreading tie-break -------------------------------------- *)

let ext_spread () =
  section
    "E9 -- ablation: type-spreading tie-break on vs off (IMDB QM queries, \
     top 5, L = 8)";
  Printf.printf "%-6s | %12s %13s | %12s %13s\n" "query" "single+spread"
    "single-pure" "multi+spread" "multi-pure";
  let totals = Array.make 4 0 in
  List.iter
    (fun (inst : Workload.instance) ->
      let context = Dod.make_context inst.Workload.profiles in
      let values =
        [
          Dod.total context (Single_swap.generate ~spread:true context ~limit:8);
          Dod.total context (Single_swap.generate ~spread:false context ~limit:8);
          Dod.total context (Multi_swap.generate ~spread:true context ~limit:8);
          Dod.total context (Multi_swap.generate ~spread:false context ~limit:8);
        ]
      in
      List.iteri (fun i v -> totals.(i) <- totals.(i) + v) values;
      match values with
      | [ ss; sp; ms; mp ] ->
        Printf.printf "%-6s | %12d %13d | %12d %13d\n" inst.Workload.label ss
          sp ms mp
      | _ -> assert false)
    (qm_instances ());
  (match Array.to_list totals with
  | [ ss; sp; ms; mp ] ->
    Printf.printf "%-6s | %12d %13d | %12d %13d\n" "total" ss sp ms mp
  | _ -> assert false);
  print_endline
    "\nshape check: without the spreading tie-break, both methods stall in \
     the poor equilibria of the all-tied movie corpus (DESIGN.md, \
     tie-breaking note)"

(* ---- SCALE: DoD engine n sweep --------------------------------------------------------- *)

(* Set by the `--quick` CLI flag: a small sweep for CI smoke runs. *)
let quick = ref false

(* Core count of the recording machine, stamped into BENCH_dod.json and
   BENCH_incremental.json. *)
let cores () = Domain.recommended_domain_count ()

(* The "ocaml" and "commit" lines every BENCH_*.json carries: the
   compiler, and the git HEAD at record time with "-dirty" when the
   working tree differs from it ("unknown" outside a git checkout). *)
let stamp () =
  let git args =
    match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
    | exception Unix.Unix_error _ -> None
    | ic -> (
      let out = String.trim (In_channel.input_all ic) in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some out
      | _ -> None)
  in
  let commit =
    match (git "rev-parse HEAD", git "status --porcelain") with
    | Some head, Some "" when head <> "" -> head
    | Some head, Some _ when head <> "" -> head ^ "-dirty"
    | _ -> "unknown"
  in
  Printf.sprintf "  \"ocaml\": %S,\n  \"commit\": %S,\n" Sys.ocaml_version commit

(* n results, timing the two engine phases: pair-table construction
   (Dod.make_context) and multi-swap generation. Emits machine-readable
   BENCH_dod.json so later changes can track the perf trajectory; its
   n = 256 row is the large-n baseline. *)
let scale () =
  section
    (Printf.sprintf
       "SCALE -- DoD engine: n sweep%s (synthetic results, L = 8)"
       (if !quick then " (quick)" else ""));
  let ns = if !quick then [ 10; 25 ] else [ 10; 25; 50; 100; 256 ] in
  let runs = if !quick then 3 else 5 in
  let limit = 8 in
  (* (n, phase, median_s) in sweep order *)
  let entries = ref [] in
  let record n phase median_s = entries := (n, phase, median_s) :: !entries in
  Printf.printf "%6s | %14s %14s\n" "n" "make_context" "multi_swap";
  List.iter
    (fun n ->
      let profiles =
        Workload.synthetic_profiles ~seed:42 ~results:n ~entities:3
          ~types_per_entity:8 ~values_per_type:6 ~max_count:12
      in
      let timed f =
        let v, stats = Timing.time ~warmup:1 ~runs f in
        (v, stats.Timing.median_s)
      in
      let context, ctx_s = timed (fun () -> Dod.make_context profiles) in
      let _, swap_s = timed (fun () -> Multi_swap.generate context ~limit) in
      record n "make_context" ctx_s;
      record n "multi_swap" swap_s;
      Printf.printf "%6d | %13.6fs %13.6fs\n" n ctx_s swap_s)
    ns;
  (* Machine-readable output, one object per (n, phase) median. *)
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n";
  Buffer.add_string json
    (Printf.sprintf "  \"bench\": \"scale\",\n  \"quick\": %b,\n" !quick);
  Buffer.add_string json (stamp ());
  Buffer.add_string json (Printf.sprintf "  \"cores\": %d,\n" (cores ()));
  Buffer.add_string json
    (Printf.sprintf "  \"limit\": %d,\n  \"runs\": %d,\n" limit runs);
  Buffer.add_string json "  \"entries\": [\n";
  let sorted = List.rev !entries in
  List.iteri
    (fun k (n, phase, median_s) ->
      Buffer.add_string json
        (Printf.sprintf "    {\"n\": %d, \"phase\": %S, \"median_s\": %.6f}%s\n"
           n phase median_s
           (if k = List.length sorted - 1 then "" else ",")))
    sorted;
  Buffer.add_string json "  ]\n}\n";
  let path = "BENCH_dod.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "\nwrote %s (%d medians)\n" path (List.length sorted)

(* ---- Bechamel micro-benchmarks --------------------------------------------------------- *)

let micro () =
  section "Bechamel micro-benchmarks (ns/run, OLS on monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  (* One Test.make per reproduced table/figure kernel. *)
  let qm4 =
    List.find
      (fun (i : Workload.instance) -> i.Workload.label = "QM4")
      (qm_instances ())
  in
  let qm4_context = Dod.make_context qm4.Workload.profiles in
  let paper_context = Dod.make_context (Workload.paper_gps_profiles ()) in
  let small_doc =
    Xsact_dataset.Imdb.generate
      { Xsact_dataset.Imdb.default_params with movies = 100 }
  in
  let small_src = Xml_print.to_string small_doc in
  let small_tree = Doctree.of_document small_doc in
  let small_engine = Search.create small_doc in
  let tests =
    Test.make_grouped ~name:"xsact"
      [
        Test.make ~name:"fig2/multi_swap_paper_example"
          (Staged.stage (fun () ->
               ignore (Multi_swap.generate paper_context ~limit:6)));
        Test.make ~name:"fig4a/single_swap_qm4"
          (Staged.stage (fun () ->
               ignore (Single_swap.generate qm4_context ~limit:8)));
        Test.make ~name:"fig4a/multi_swap_qm4"
          (Staged.stage (fun () ->
               ignore (Multi_swap.generate qm4_context ~limit:8)));
        Test.make ~name:"fig4b/topk_qm4"
          (Staged.stage (fun () -> ignore (Topk.generate qm4_context ~limit:8)));
        Test.make ~name:"e5/xml_parse_100_movies"
          (Staged.stage (fun () -> ignore (Xml_parse.parse_string small_src)));
        Test.make ~name:"e5/index_build_100_movies"
          (Staged.stage (fun () -> ignore (Index.build small_tree)));
        Test.make ~name:"e5/slca_query"
          (Staged.stage (fun () ->
               ignore (Search.query ~limit:5 small_engine "action")));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ x ] -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  Printf.printf "%-40s | %16s\n" "kernel" "time per run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-40s | %16s\n" name pretty)
    (List.sort compare !rows)

(* ---- E13: durable sessions ------------------------------------------------- *)

module Journal = Xsact_persist.Journal
module Server = Xsact_server.Server
module Http = Xsact_server.Http

(* Quantifies what durability costs: raw journal append rates per fsync
   policy, session-mutation throughput with and without a state dir, warm
   /compare throughput with journaling enabled (the hot read path never
   touches the journal; e2ebench/README.md has the end-to-end /compare
   numbers to hold it against), and recovery time. Writes
   BENCH_persist.json. *)
let persist_bench () =
  section
    (Printf.sprintf "PERSIST -- journal cost, mutation overhead, recovery%s"
       (if !quick then " (quick)" else ""));
  let tmp_dir tag =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xsact_bench_persist_%d_%s" (Unix.getpid ()) tag)
    in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    dir
  in
  (* raw journal appends per second, by policy *)
  let payload =
    {|{"op":"set","id":"s42","t":1.5,"entry":{"v":1,"dataset":"product-reviews","request":{"dataset":"product-reviews","q":"gps","top":4},"ranks":[1,2,3,4],"size_bound":8}}|}
  in
  let appends = if !quick then 500 else 5000 in
  let journal_rates =
    List.map
      (fun (tag, policy) ->
        let dir = tmp_dir ("journal_" ^ tag) in
        Unix.mkdir dir 0o755;
        let j = Journal.open_append ~fsync:policy (Filename.concat dir "j") in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to appends do
          Journal.append j payload
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        Journal.close j;
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
        let rate = float_of_int appends /. elapsed in
        Printf.printf "journal append (%-13s) %9.0f ops/s\n" tag rate;
        (tag, rate))
      [ ("never", Journal.Never); ("interval:0.1", Journal.Interval 0.1);
        ("always", Journal.Always) ]
  in
  hr ();
  (* session mutations and warm compares over HTTP, with and without a
     state dir behind the store *)
  let mutations = if !quick then 40 else 200 in
  let compares = if !quick then 200 else 4000 in
  let compare_body =
    {|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":8}|}
  in
  let run_config tag state_dir =
    let t =
      Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:64
        ?state_dir ()
    in
    Server.recover t;
    let running = Server.start ~threads:4 ~port:0 t in
    let host = "127.0.0.1" and port = Server.port running in
    let mut_rate, create_id =
      Http.with_connection ~host ~port (fun call ->
          let _, _, body =
            call ~meth:"POST"
              ~body:{|{"dataset":"product-reviews","q":"gps","top":3}|}
              "/session"
          in
          let id =
            match Xsact_server.Json.of_string body with
            | Ok j -> (
              match Xsact_server.Json.member "id" j with
              | Some (Xsact_server.Json.String id) -> id
              | _ -> failwith "no session id")
            | Error e -> failwith e
          in
          let t0 = Unix.gettimeofday () in
          for k = 1 to mutations do
            let body =
              Printf.sprintf {|{"size_bound":%d}|} (4 + (k mod 5))
            in
            let status, _, _ = call ~body ("/session/" ^ id ^ "/size") in
            if status <> 200 then failwith "size op failed"
          done;
          (float_of_int mutations /. (Unix.gettimeofday () -. t0), id))
    in
    ignore create_id;
    (* best-of-3 damps scheduler noise: both configs are cache-hit bound,
       so the best run is the one least perturbed by the machine *)
    let warm_once () =
      Http.with_connection ~host ~port (fun call ->
          let _ = call ~body:compare_body "/compare" in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to compares do
            let status, _, _ = call ~body:compare_body "/compare" in
            if status <> 200 then failwith "compare failed"
          done;
          float_of_int compares /. (Unix.gettimeofday () -. t0))
    in
    let warm_rate =
      List.fold_left max 0. (List.init 3 (fun _ -> warm_once ()))
    in
    Server.stop running;
    Printf.printf "%-22s %8.0f mutations/s   %8.0f warm compare/s\n" tag
      mut_rate warm_rate;
    (mut_rate, warm_rate)
  in
  (* one discarded pass warms the CPU, allocator and page cache so the
     in-memory-vs-journaled comparison isn't skewed by run order *)
  let _ = run_config "(warm-up)" None in
  let base_mut, base_cmp = run_config "in-memory" None in
  let state = tmp_dir "server" in
  let dur_mut, dur_cmp =
    run_config "state-dir (interval)" (Some state)
  in
  let compare_overhead_pct = 100. *. (1. -. (dur_cmp /. base_cmp)) in
  Printf.printf
    "\nwarm /compare overhead with journaling: %+.1f%% (bound: <10%%)\n"
    compare_overhead_pct;
  hr ();
  (* recovery time for a populated store *)
  let sessions = if !quick then 20 else 100 in
  let recovery_ms =
    let dir = tmp_dir "recover" in
    let t =
      Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:64
        ~state_dir:dir ()
    in
    Server.recover t;
    let req body =
      let path, query = Http.split_target "/session" in
      { Http.meth = "POST"; target = "/session"; path; query; headers = [];
        body }
    in
    for _ = 1 to sessions do
      let resp =
        Server.handle t
          (req {|{"dataset":"product-reviews","q":"gps","top":3}|})
      in
      if resp.Http.status <> 201 then failwith "populate failed"
    done;
    let t2 =
      Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:64
        ~state_dir:dir ()
    in
    let t0 = Unix.gettimeofday () in
    Server.recover t2;
    let ms = 1000. *. (Unix.gettimeofday () -. t0) in
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    Printf.printf "recovery of %d sessions: %.1f ms\n" sessions ms;
    ms
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote state)));
  hr ();
  (* Restart and resync over one population: [sessions] sessions spread
     round-robin over 10 hot queries (the sessions of one corpus share a
     context), each resized once after its create, so none serves what a
     fresh generation over its recipe would (its runs differ, and often
     its warm-started DFSs). The primary keeps serving while the resync rounds run,
     then stops cleanly for the restart rounds. A round's clock runs from
     a fresh server's [recover] until every session is warm: for a
     restart, the first GET of each; for a follower, /metrics polled
     until [sessions_warm] counts them all, the polling warming nothing.
     Off the clock, every body it then serves must equal the primary's,
     or the bench fails. *)
  let post target body =
    let path, query = Http.split_target target in
    { Http.meth = "POST"; target; path; query; headers = []; body }
  in
  let get target =
    let path, query = Http.split_target target in
    { Http.meth = "GET"; target; path; query; headers = []; body = "" }
  in
  let hot =
    List.concat_map
      (fun name ->
        match Xsact_dataset.Dataset.by_name name with
        | None -> []
        | Some d ->
          List.map (fun (_, q) -> (name, q)) d.Xsact_dataset.Dataset.queries)
      Xsact_dataset.Dataset.names
    |> List.filteri (fun i _ -> i < 10)
    |> Array.of_list
  in
  let json_field name body =
    match Xsact_server.Json.of_string body with
    | Ok j -> Xsact_server.Json.member name j
    | Error e -> failwith e
  in
  let ok what resp =
    if resp.Http.status / 100 <> 2 then
      failwith (Printf.sprintf "persist bench: %s answered %d" what
                  resp.Http.status);
    resp.Http.resp_body
  in
  let mk ?replica_of dir =
    Server.create ~datasets:Xsact_dataset.Dataset.names ~cache_capacity:64
      ~state_dir:dir ?replica_of ()
  in
  let bodies t ids =
    List.map (fun id -> ok "GET" (Server.handle t (get ("/session/" ^ id)))) ids
  in
  let changed expected got =
    List.length (List.filter Fun.id (List.map2 ( <> ) expected got))
  in
  let median xs =
    let a = Array.of_list (List.sort compare xs) in
    a.(Array.length a / 2)
  in
  let p_dir = tmp_dir "primary" in
  let p = mk p_dir in
  Server.recover p;
  let p_running = Server.start ~threads:2 ~port:0 p in
  let ids =
    List.init sessions (fun k ->
        let ds, q = hot.(k mod Array.length hot) in
        let created =
          Server.handle p
            (post "/session"
               (Printf.sprintf
                  {|{"dataset":%S,"q":%S,"top":10,"size_bound":20}|} ds q))
        in
        let id =
          match json_field "id" (ok "POST /session" created) with
          | Some (Xsact_server.Json.String id) -> id
          | _ -> failwith "persist bench: no session id"
        in
        ignore
          (ok "resize"
             (Server.handle p
                (post ("/session/" ^ id ^ "/size")
                   (Printf.sprintf {|{"size_bound":%d}|} (4 + (k mod 7))))));
        id)
  in
  let expected = bodies p ids in
  let follower_round () =
    let f_dir = tmp_dir "follower" in
    let f = mk ~replica_of:("127.0.0.1", Server.port p_running) f_dir in
    (* the listener exists only so [stop] can join the replication client
       cleanly between rounds *)
    let f_running = Server.start ~threads:1 ~port:0 f in
    let t0 = Unix.gettimeofday () in
    Server.recover f;
    let warm () =
      let metrics = ok "/metrics" (Server.handle f (get "/metrics")) in
      match json_field "sessions_warm" metrics with
      | Some (Xsact_server.Json.Int n) -> n >= sessions
      | _ -> false
    in
    while (not (warm ())) && Unix.gettimeofday () < t0 +. 120. do
      Thread.delay 0.002
    done;
    let ms = 1000. *. (Unix.gettimeofday () -. t0) in
    if not (warm ()) then failwith "persist bench: the follower never warmed";
    let differ = changed expected (bodies f ids) in
    Server.stop f_running;
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote f_dir)));
    (ms, differ)
  in
  let restart_round () =
    let t = mk p_dir in
    let t0 = Unix.gettimeofday () in
    Server.recover t;
    let recover_ms = 1000. *. (Unix.gettimeofday () -. t0) in
    let got = bodies t ids in
    (recover_ms, 1000. *. (Unix.gettimeofday () -. t0), changed expected got)
  in
  (* one discarded round warms each path, then [rounds] timed ones *)
  let rounds = if !quick then 3 else 7 in
  let timed round =
    ignore (round ());
    List.init rounds (fun _ -> round ())
  in
  let resync = timed follower_round in
  Server.stop p_running;
  let restart = timed restart_round in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote p_dir)));
  let resync_changed = List.fold_left (fun a (_, c) -> a + c) 0 resync in
  let restart_changed = List.fold_left (fun a (_, _, c) -> a + c) 0 restart in
  let rs_ms = List.map fst resync in
  let rt_recover = List.map (fun (r, _, _) -> r) restart in
  let rt_total = List.map (fun (_, t, _) -> t) restart in
  Printf.printf
    "restart of %d resized sessions over %d corpora, until all warm: \
     median %.1f ms (min %.1f; recover alone %.1f)\n\
     resync of the same sessions to a fresh follower, until all warm: \
     median %.1f ms (min %.1f)\n\
     bodies that differ from the primary's: restart %d, resync %d\n"
    sessions (Array.length hot) (median rt_total)
    (List.fold_left min infinity rt_total) (median rt_recover) (median rs_ms)
    (List.fold_left min infinity rs_ms) restart_changed resync_changed;
  if restart_changed + resync_changed > 0 then
    failwith "persist bench: a recovered or replicated session changed";
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n";
  Buffer.add_string json
    (Printf.sprintf "  \"bench\": \"persist\",\n  \"quick\": %b,\n" !quick);
  Buffer.add_string json (stamp ());
  Buffer.add_string json
    (Printf.sprintf "  \"journal_appends\": %d,\n" appends);
  Buffer.add_string json "  \"journal_append_rates\": {";
  List.iteri
    (fun k (tag, rate) ->
      Buffer.add_string json
        (Printf.sprintf "%s\"%s\": %.1f" (if k = 0 then "" else ", ") tag rate))
    journal_rates;
  Buffer.add_string json "},\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"mutations_per_s\": {\"in_memory\": %.1f, \"state_dir\": %.1f},\n"
       base_mut dur_mut);
  Buffer.add_string json
    (Printf.sprintf
       "  \"warm_compare_per_s\": {\"in_memory\": %.1f, \"state_dir\": \
        %.1f},\n"
       base_cmp dur_cmp);
  Buffer.add_string json
    (Printf.sprintf "  \"warm_compare_overhead_pct\": %.2f,\n"
       compare_overhead_pct);
  Buffer.add_string json
    (Printf.sprintf
       "  \"recovery\": {\"sessions\": %d, \"recovery_ms\": %.2f},\n" sessions
       recovery_ms);
  Buffer.add_string json
    (Printf.sprintf
       "  \"restart\": {\"sessions\": %d, \"corpora\": %d, \"rounds\": %d, \
        \"recover_ms\": %.2f, \"until_warm_ms\": %.2f, \
        \"until_warm_min_ms\": %.2f, \"bodies_changed\": %d},\n"
       sessions (Array.length hot) rounds (median rt_recover) (median rt_total)
       (List.fold_left min infinity rt_total) restart_changed);
  Buffer.add_string json
    (Printf.sprintf
       "  \"resync\": {\"sessions\": %d, \"corpora\": %d, \"rounds\": %d, \
        \"until_warm_ms\": %.2f, \"until_warm_min_ms\": %.2f, \
        \"bodies_changed\": %d}\n"
       sessions (Array.length hot) rounds (median rs_ms)
       (List.fold_left min infinity rs_ms) resync_changed);
  Buffer.add_string json "}\n";
  let path = "BENCH_persist.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---- Incremental maintenance: delta operations vs full rebuild ----------------------------- *)

(* E14/E15: single mutation latency, one [Dod.rearrange] delta vs a
   batch make_context, over growing result sets: add, remove-last,
   general remove, reparams (threshold change: every pair recomputes) and
   reweight (weight rows only, every pair
   cached) — each delta replays the link table once — plus a
   session-level batch of k ops vs k sequential single-op applies.
   Writes BENCH_incremental.json; EXPERIMENTS.md E14/E15 record the
   speedups and their asymptotics. *)
(* What each sweep size's context (n + 1 results of the seed-7 corpus
   below) cost under the boxed layout the flat one replaced: one 4-field
   record plus a cons cell per oriented link, 64-bit words. The boxed
   layout is gone, so these are frozen constants; they keep the
   bytes-per-context ratio and the CI memory smoke's baseline. *)
let boxed_context_bytes =
  [ (8, 97264); (16, 301024); (32, 1032240); (64, 3947568);
    (128, 15440624); (256, 59799840) ]

let incremental_bench () =
  section
    (Printf.sprintf "incremental -- context delta ops vs full rebuild%s"
       (if !quick then " (quick)" else ""));
  (* quick keeps both ends of the sweep, so CI gates the delta's margin
     over the rebuild at the smallest n, where it is thinnest *)
  let ns = if !quick then [ 8; 64; 256 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let runs = if !quick then 3 else 5 in
  Printf.printf "%5s | %8s | %8s %8s | %8s %8s | %9s %9s %6s\n" "n" "add"
    "rm last" "rm gen" "reparams" "reweight" "flat B" "boxed B" "ratio";
  let rows = ref [] in
  List.iter
    (fun n ->
      let profiles =
        Workload.synthetic_profiles ~seed:7 ~results:(n + 1) ~entities:3
          ~types_per_entity:8 ~values_per_type:6 ~max_count:12
      in
      let base = Array.sub profiles 0 n in
      let mid = (n + 1) / 2 in
      let sans_mid =
        Array.init n (fun i -> profiles.(if i < mid then i else i + 1))
      in
      let params' = { Dod.default_params with Dod.threshold_pct = 25.0 } in
      let reweight gt = if String.length gt.Feature.attribute land 1 = 0 then 2 else 1 in
      let ctx_base = Dod.make_context base in
      let ctx_full = Dod.make_context profiles in
      let all = List.init (n + 1) Fun.id in
      let but i = List.filter (( <> ) i) all in
      let keep_base = but n and keep_sans_mid = but mid in
      let add () =
        Dod.rearrange ctx_base ~keep:keep_base ~add:[ profiles.(n) ]
      in
      let remove_last () = Dod.rearrange ctx_full ~keep:keep_base ~add:[] in
      let remove_mid () = Dod.rearrange ctx_full ~keep:keep_sans_mid ~add:[] in
      let reparams () =
        Dod.rearrange ~params:params' ctx_full ~keep:all ~add:[]
      in
      let reweighted () =
        Dod.rearrange ~weight:reweight ctx_full ~keep:all ~add:[]
      in
      (* sanity: the timed deltas really are the batch results *)
      let same what fresh delta =
        if not (Dod.equal_context fresh (delta ())) then
          failwith ("incremental bench: " ^ what ^ " delta diverged")
      in
      same "add" ctx_full add;
      same "remove-last" ctx_base remove_last;
      same "general remove" (Dod.make_context sans_mid) remove_mid;
      same "reparams" (Dod.make_context ~params:params' profiles) reparams;
      same "reweight" (Dod.make_context ~weight:reweight profiles) reweighted;
      let time f = snd (Timing.time ~warmup:1 ~runs f) in
      let add_delta = time add in
      let add_full = time (fun () -> Dod.make_context profiles) in
      let rml_delta = time remove_last in
      let rml_full = time (fun () -> Dod.make_context base) in
      let rmg_delta = time remove_mid in
      let rmg_full = time (fun () -> Dod.make_context sans_mid) in
      let rp_delta = time reparams in
      let rp_full =
        time (fun () -> Dod.make_context ~params:params' profiles)
      in
      let rw_delta = time reweighted in
      let rw_full =
        time (fun () -> Dod.make_context ~weight:reweight profiles)
      in
      let speedup full delta =
        if delta.Timing.median_s > 0. then
          full.Timing.median_s /. delta.Timing.median_s
        else Float.infinity
      in
      let add_x = speedup add_full add_delta in
      let rml_x = speedup rml_full rml_delta in
      let rmg_x = speedup rmg_full rmg_delta in
      let rp_x = speedup rp_full rp_delta in
      let rw_x = speedup rw_full rw_delta in
      (* bytes per context: the flat packed representation vs what the
         same pair tables would cost as boxed entry lists *)
      let bytes_flat = Dod.approx_bytes ctx_full in
      let bytes_boxed = List.assoc n boxed_context_bytes in
      let bytes_ratio = float_of_int bytes_boxed /. float_of_int bytes_flat in
      Printf.printf
        "%5d | %7.1fx | %7.1fx %7.1fx | %7.1fx %7.1fx | %9d %9d %5.2fx\n" n
        add_x rml_x rmg_x rp_x rw_x bytes_flat bytes_boxed bytes_ratio;
      rows :=
        (n, (add_delta, add_full, add_x), (rml_delta, rml_full, rml_x),
         (rmg_delta, rmg_full, rmg_x), (rp_delta, rp_full, rp_x), rw_x,
         (bytes_flat, bytes_boxed, bytes_ratio))
        :: !rows)
    ns;
  let rows = List.rev !rows in
  (* Every delta that reuses cached pairs must beat the rebuild it
     replaces by at least 2x at every n: add computes n pairs instead of
     n (n + 1) / 2, removes and reweights compute none, and all of them
     replay the link table once. The margin is thinnest at the smallest
     n, where the replay is a large share of a small rebuild. A params
     change recomputes every pair, so reparams is recorded but not
     gated. *)
  let delta_beats_rebuild =
    List.for_all
      (fun (_, (_, _, ax), (_, _, rlx), (_, _, rgx), _, rwx, _) ->
        List.for_all (fun x -> x >= 2.0) [ ax; rlx; rgx; rwx ])
      rows
  in
  Printf.printf "\nadd/remove/reweight deltas >= 2x faster than rebuild: %b\n"
    delta_beats_rebuild;
  (* The flat representation must at least halve the boxed footprint at
     the largest n — the per-entry overhead it removes (list cons cells,
     boxed records) dominates as pair tables grow. *)
  let bytes_halved =
    match List.rev rows with
    | (_, _, _, _, _, _, (_, _, ratio)) :: _ -> ratio >= 2.0
    | [] -> true
  in
  Printf.printf "flat context >= 2x smaller than boxed at n=%d: %b\n"
    (List.fold_left (fun _ (n, _, _, _, _, _, _) -> n) 0 rows)
    bytes_halved;
  (* Batch of k session ops vs the same ops applied one at a time: the
     batch pays one context pass and one DFS regeneration, the sequential
     replay pays k of each. Session-level (Single_swap) so
     the comparison covers the whole mutation path, not just the pair
     tables. *)
  let batch_n = 32 and batch_k = 16 in
  let profiles =
    Workload.synthetic_profiles ~seed:7 ~results:(batch_n + 8) ~entities:3
      ~types_per_entity:8 ~values_per_type:6 ~max_count:12
  in
  let config =
    Config.default |> Config.with_algorithm Algorithm.Single_swap
  in
  let s0 =
    match
      Session.create ~config ~size_bound:8
        (Array.to_list (Array.sub profiles 0 batch_n))
    with
    | Ok s -> s
    | Error _ -> failwith "incremental bench: session create failed"
  in
  let params' = { Dod.default_params with Dod.threshold_pct = 25.0 } in
  let ops =
    (* 6 adds, 4 removes, 4 resizes, 2 reparams = 16 mixed ops *)
    List.init 6 (fun i -> Session.Add profiles.(batch_n + i))
    @ [
        Session.Remove 3; Session.Remove 17; Session.Remove 5;
        Session.Remove 11;
        Session.Set_size_bound 10; Session.Set_size_bound 6;
        Session.Reparams { params = Some params'; weight = None };
        Session.Set_size_bound 12;
        Session.Reparams { params = Some Dod.default_params; weight = None };
        Session.Set_size_bound 8;
      ]
  in
  assert (List.length ops = batch_k);
  let apply_batch () =
    match Session.apply s0 ops with
    | Ok s -> s
    | Error _ -> failwith "incremental bench: batch apply failed"
  in
  let apply_sequential () =
    List.fold_left
      (fun s op ->
        match Session.apply s [ op ] with
        | Ok s -> s
        | Error _ -> failwith "incremental bench: sequential apply failed")
      s0 ops
  in
  (* sanity: both routes land on the same context bytes *)
  if
    not
      (Dod.equal_context
         (Session.context (apply_batch ()))
         (Session.context (apply_sequential ())))
  then failwith "incremental bench: batch context diverged from sequential";
  let batch_t = snd (Timing.time ~warmup:1 ~runs apply_batch) in
  let seq_t = snd (Timing.time ~warmup:1 ~runs apply_sequential) in
  let batch_x =
    if batch_t.Timing.median_s > 0. then
      seq_t.Timing.median_s /. batch_t.Timing.median_s
    else Float.infinity
  in
  Printf.printf
    "batch: n=%d k=%d  batch %.6fs vs sequential %.6fs  (%.1fx)\n" batch_n
    batch_k batch_t.Timing.median_s seq_t.Timing.median_s batch_x;
  (* Cross-session interning: k sessions over the same corpus and
     parameters hold one physical context. Drive the serve layer's intern
     table the way the session endpoints do — the first session builds
     and publishes, the rest acquire the pinned entry — and compare the
     table's ledger against the naive k-copies cost. *)
  let module Intern = Xsact_server.Intern in
  let share_k = 8 in
  let share_table = Intern.create () in
  let share_key = "bench-shared-corpus" in
  let shared_sessions =
    List.init share_k (fun _ ->
        match Intern.acquire share_table share_key with
        | Some (ps, ctx) -> (
          match
            Session.create ~config ~context:ctx ~size_bound:8
              (Array.to_list ps)
          with
          | Ok s -> s
          | Error _ -> failwith "incremental bench: shared session failed")
        | None -> (
          match
            Session.create ~config ~size_bound:8
              (Array.to_list (Array.sub profiles 0 batch_n))
          with
          | Ok s ->
            let _, ctx =
              Intern.publish share_table share_key
                ~profiles:(Session.profiles s)
                ~context:(Session.context s)
            in
            if ctx == Session.context s then s
            else Session.intern s ~context:ctx
          | Error _ -> failwith "incremental bench: shared session failed"))
  in
  let one_physical_context =
    match shared_sessions with
    | s0 :: rest ->
      List.for_all (fun s -> Session.context s == Session.context s0) rest
    | [] -> false
  in
  if not one_physical_context then
    failwith "incremental bench: interned sessions hold distinct contexts";
  let interned_bytes = Intern.bytes_live share_table in
  let naive_bytes =
    share_k * Dod.approx_bytes (Session.context (List.hd shared_sessions))
  in
  Printf.printf
    "sharing: %d sessions over one corpus  interned %d B vs naive %d B \
     (%.1fx, one physical context: %b)\n"
    share_k interned_bytes naive_bytes
    (float_of_int naive_bytes /. float_of_int interned_bytes)
    one_physical_context;
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"bench\": \"incremental\",\n  \"quick\": %b,\n  \"cores\": %d,\n"
       !quick (cores ()));
  Buffer.add_string json (stamp ());
  Buffer.add_string json "  \"sweep\": [\n";
  List.iteri
    (fun k
         ( n,
           (ad, af, ax),
           (rld, rlf, rlx),
           (rgd, rgf, rgx),
           (rpd, rpf, rpx),
           rwx,
           (bflat, bboxed, bratio) ) ->
      Buffer.add_string json
        (Printf.sprintf
           "    {\"n\": %d, \"add_delta_s\": %.9f, \"add_full_s\": %.9f, \
            \"add_speedup\": %.2f, \"remove_last_delta_s\": %.9f, \
            \"remove_last_full_s\": %.9f, \"remove_last_speedup\": %.2f, \
            \"remove_general_delta_s\": %.9f, \"remove_general_full_s\": \
            %.9f, \"remove_general_speedup\": %.2f, \"reparams_delta_s\": \
            %.9f, \"reparams_full_s\": %.9f, \"reparams_speedup\": %.2f, \
            \"reparams_weight_speedup\": %.2f, \"context_bytes_flat\": %d, \
            \"context_bytes_boxed\": %d, \"context_bytes_ratio\": %.2f}%s\n"
           n ad.Timing.median_s af.Timing.median_s ax rld.Timing.median_s
           rlf.Timing.median_s rlx rgd.Timing.median_s rgf.Timing.median_s
           rgx rpd.Timing.median_s rpf.Timing.median_s rpx rwx bflat bboxed
           bratio
           (if k = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string json "  ],\n";
  Buffer.add_string json
    (Printf.sprintf
       "  \"batch\": {\"n\": %d, \"k\": %d, \"batch_s\": %.9f, \
        \"sequential_s\": %.9f, \"speedup\": %.2f},\n"
       batch_n batch_k batch_t.Timing.median_s seq_t.Timing.median_s batch_x);
  Buffer.add_string json
    (Printf.sprintf
       "  \"sharing\": {\"sessions\": %d, \"interned_bytes\": %d, \
        \"naive_bytes\": %d, \"one_physical_context\": %b},\n"
       share_k interned_bytes naive_bytes one_physical_context);
  Buffer.add_string json
    (Printf.sprintf "  \"bytes_halved_at_max_n\": %b,\n" bytes_halved);
  Buffer.add_string json
    (Printf.sprintf "  \"delta_beats_rebuild\": %b\n" delta_beats_rebuild);
  Buffer.add_string json "}\n";
  let path = "BENCH_incremental.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ---- Registry ------------------------------------------------------------------------------ *)

let targets =
  [
    ("fig1_stats", fig1_stats);
    ("fig2_table", fig2_table);
    ("fig4a_dod", fig4a_dod);
    ("fig4b_time", fig4b_time);
    ("demo_outdoor", demo_outdoor);
    ("ext_sweep_l", ext_sweep_l);
    ("ext_sweep_n", ext_sweep_n);
    ("ext_optimality", ext_optimality);
    ("ext_threshold", ext_threshold);
    ("ext_measure", ext_measure);
    ("ext_scale", ext_scale);
    ("ext_stochastic", ext_stochastic);
    ("ext_incremental", ext_incremental);
    ("ext_weighting", ext_weighting);
    ("ext_spread", ext_spread);
    ("scale", scale);
    ("incremental", incremental_bench);
    ("persist", persist_bench);
    ("micro", micro);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with [] -> List.map fst targets | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown bench target %S; available: %s\n" name
          (String.concat ", " (List.map fst targets));
        exit 1)
    requested;
  Printf.printf "\n(total bench wall time: %.1fs)\n" (Unix.gettimeofday () -. t0)
