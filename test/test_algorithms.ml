(* Tests for the DFS generation algorithms: validity post-conditions,
   local-optimality oracles, the multi-swap DP checked exactly against
   brute-force enumeration, and the expected quality ordering
   topk <= single-swap / multi-swap <= exhaustive optimum. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v

let synthetic ~seed ~results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:2
    ~types_per_entity:3 ~values_per_type:2 ~max_count:4

let tiny ~seed ~results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:1
    ~types_per_entity:3 ~values_per_type:2 ~max_count:3

(* ---- Validity post-conditions (property, all algorithms) --------------- *)

let prop_outputs_valid =
  QCheck.Test.make ~name:"all algorithms produce valid DFSs" ~count:100
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 8)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      let c = Dod.make_context profiles in
      List.for_all
        (fun alg ->
          let dfss = Algorithm.generate alg c ~limit in
          Array.for_all (fun d -> Dfs.is_valid ~limit d) dfss)
        Algorithm.practical)

(* Monotone objective => swap algorithms use the whole budget. *)
let prop_budget_used =
  QCheck.Test.make ~name:"swap algorithms fill min(limit, total)" ~count:100
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 8)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      let c = Dod.make_context profiles in
      List.for_all
        (fun alg ->
          let dfss = Algorithm.generate alg c ~limit in
          Array.for_all2
            (fun d (p : Result_profile.t) ->
              Dfs.size d = min limit p.Result_profile.total_features)
            dfss profiles)
        [ Algorithm.Topk; Algorithm.Single_swap; Algorithm.Multi_swap ])

(* ---- Quality ordering ----------------------------------------------------- *)

let prop_swaps_dominate_topk =
  QCheck.Test.make ~name:"single/multi-swap DoD >= topk DoD" ~count:150
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 8)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      let c = Dod.make_context profiles in
      let dod alg = Dod.total c (Algorithm.generate alg c ~limit) in
      let topk = dod Algorithm.Topk in
      dod Algorithm.Single_swap >= topk && dod Algorithm.Multi_swap >= topk)

let prop_bounded_by_optimum =
  QCheck.Test.make ~name:"all methods <= exhaustive optimum" ~count:60
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 4)))
    (fun (seed, limit) ->
      let profiles = tiny ~seed ~results:2 in
      let c = Dod.make_context profiles in
      match Exhaustive.optimum ~max_states:400_000 c ~limit with
      | exception Exhaustive.Too_large _ -> QCheck.assume_fail ()
      | opt ->
        List.for_all
          (fun alg -> Dod.total c (Algorithm.generate alg c ~limit) <= opt)
          Algorithm.practical)

(* ---- Local-optimality post-conditions -------------------------------------- *)

let prop_single_swap_no_improving_move =
  QCheck.Test.make ~name:"single-swap output has no improving move" ~count:80
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 6)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      let c = Dod.make_context profiles in
      let dfss = Single_swap.generate c ~limit in
      not (Single_swap.improving_move_exists c ~limit dfss))

let prop_multi_swap_is_single_swap_optimal =
  QCheck.Test.make ~name:"multi-swap output is also single-swap optimal"
    ~count:80
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 6)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      let c = Dod.make_context profiles in
      let dfss = Multi_swap.generate c ~limit in
      (* A multi-swap optimum admits no DoD-improving single move either
         (single moves are a special case of reshaping one DFS). *)
      let before = Dod.total c dfss in
      not (Single_swap.improving_move_exists c ~limit dfss)
      ||
      (* The oracle also reports packed (type-spreading) moves; only genuine
         DoD improvements violate multi-swap optimality. *)
      let climbed = Single_swap.generate ~init:dfss c ~limit in
      Dod.total c climbed = before)

(* ---- Multi-swap best response vs. brute force ------------------------------- *)

(* A random non-negative weight per type, zero included. *)
let random_weight seed (t : Feature.ftype) =
  Hashtbl.hash (seed, t.entity, t.attribute) mod 4

(* The DP maximizes gain = type_tie_base * weighted DoD-vs-others + spread
   bonus, where a selected type's bonus is 1 plus the number of other
   results sharing it. Enumerate all valid DFSs of result 0 and verify none
   beats the DP's answer on that packed objective. With 3-6 results a type
   carries several thresholds, some of them infinite. *)
let prop_best_response_exact =
  QCheck.Test.make ~name:"best_response matches brute-force enumeration"
    ~count:120
    QCheck.(
      make
        Gen.(
          quad (int_range 0 1000000) (int_range 1 5) (int_range 3 6) bool))
    (fun (seed, limit, results, weighted) ->
      let profiles = tiny ~seed ~results in
      let c =
        if weighted then Dod.make_context ~weight:(random_weight seed) profiles
        else Dod.make_context profiles
      in
      let dfss = Topk.generate c ~limit in
      let response = Multi_swap.best_response c ~limit dfss 0 in
      let packed d =
        let with_d = Array.copy dfss in
        with_d.(0) <- d;
        let dod = ref 0 in
        for j = 1 to results - 1 do
          dod := !dod + Dod.dod_pair c ~i:0 ~j with_d.(0) with_d.(j)
        done;
        let bonus =
          List.fold_left
            (fun acc gi -> acc + 1 + List.length (Dod.links c ~i:0 ~gi))
            0 (Dfs.selected_types d)
        in
        (!dod * 4096) + bonus
      in
      let best_enum =
        List.fold_left
          (fun acc d -> max acc (packed d))
          0
          (Exhaustive.enumerate_valid ~limit profiles.(0))
      in
      packed response = best_enum)

(* ---- Multi-swap gain curves ---------------------------------------------- *)

(* The curves are exact: every cell matches a count over the public link
   API, and precomputed curves give the same best response as curves
   computed inside the call. *)
let wide ~seed ~results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:2
    ~types_per_entity:4 ~values_per_type:3 ~max_count:5

(* Every curve cell against a reference built from the public link API
   only: the number of links whose threshold is at most q. The other
   results' selections come from top-k at a random bound, zero included,
   so some links have an unselected other side. *)
let prop_curves_reference =
  QCheck.Test.make ~name:"curve cells = links with threshold_q <= q" ~count:80
    QCheck.(
      make Gen.(triple (int_range 0 1000000) (int_range 2 6) (int_range 0 8)))
    (fun (seed, results, limit) ->
      let c = Dod.make_context (wide ~seed ~results) in
      let dfss = Topk.generate c ~limit in
      List.for_all
        (fun i ->
          let curves = Multi_swap.compute_curves c dfss i in
          let profile = (Dod.results c).(i) in
          Array.length curves = Result_profile.num_types profile
          && Array.for_all Fun.id
               (Array.mapi
                  (fun gi curve ->
                    let qmax =
                      Array.length (Result_profile.type_info profile gi).features
                    in
                    let thresholds =
                      List.map
                        (fun (l : Dod.link) ->
                          Dod.threshold_q l
                            ~q_other:(Dfs.q dfss.(l.other) l.gi_other))
                        (Dod.links c ~i ~gi)
                    in
                    Array.length curve = qmax + 1
                    && Array.for_all Fun.id
                         (Array.mapi
                            (fun q cell ->
                              cell
                              = List.length
                                  (List.filter (fun a -> a <= q) thresholds))
                            curve))
                  curves))
        (List.init results Fun.id))

let prop_best_response_curves_exact =
  QCheck.Test.make
    ~name:"precomputed curves = per-call recomputation in best_response"
    ~count:60
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let c = Dod.make_context (wide ~seed ~results:3) in
      let dfss = Topk.generate c ~limit:5 in
      List.for_all
        (fun i ->
          let curves = Multi_swap.compute_curves c dfss i in
          Dfs.to_q_array (Multi_swap.best_response ~curves c ~limit:5 dfss i)
          = Dfs.to_q_array (Multi_swap.best_response c ~limit:5 dfss i))
        [ 0; 1; 2 ])

(* ---- Deterministic fixed cases ----------------------------------------------- *)

(* Tie-rich instances (counts in {1,2}, many types and values) are where the
   coordinated multi-feature reshapes of the DP pay off: single-feature hill
   climbing gets stuck when reaching a deep gap feature costs strictly-worse
   intermediate states. This pinned instance is a regression witness for
   that separation (found by scanning the synthetic family). *)
let deep_gap_config seed =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results:5 ~entities:1
    ~types_per_entity:8 ~values_per_type:5 ~max_count:2

let test_multi_beats_single_on_pinned_instance () =
  let witnesses =
    List.filter
      (fun seed ->
        let profiles = deep_gap_config seed in
        let c = Dod.make_context profiles in
        let single = Dod.total c (Single_swap.generate c ~limit:5) in
        let multi = Dod.total c (Multi_swap.generate c ~limit:5) in
        multi > single)
      [ 2; 4; 10; 24; 29; 31; 33; 40 ]
  in
  (* All eight seeds separated the algorithms when pinned; demand that at
     least half still do, so the test survives benign tie-break shifts while
     still catching a collapse of the DP's advantage. *)
  check Alcotest.bool
    (Printf.sprintf "multi > single on >= 4 of 8 pinned seeds (got %d)"
       (List.length witnesses))
    true
    (List.length witnesses >= 4)

let test_fixed_instance_values () =
  (* Three movies, shared scalar schema: title always differs, year differs
     only against the third, rating all equal. L=3 lets everything in. *)
  let mk label year =
    Result_profile.make ~label ~populations:[]
      [
        (f ~e:"m" ~a:"title" ~v:label, 1);
        (f ~e:"m" ~a:"year" ~v:year, 1);
        (f ~e:"m" ~a:"rating" ~v:"7.0", 1);
      ]
  in
  let profiles = [| mk "A" "1999"; mk "B" "1999"; mk "C" "2005" |] in
  let c = Dod.make_context profiles in
  List.iter
    (fun alg ->
      let dfss = Algorithm.generate alg c ~limit:3 in
      (* titles: 3 pairs; years: 2 pairs; rating: 0 -> optimum 5. *)
      check Alcotest.int
        (Algorithm.to_string alg ^ " reaches optimum")
        5 (Dod.total c dfss))
    [ Algorithm.Single_swap; Algorithm.Multi_swap ];
  check Alcotest.int "exhaustive agrees" 5 (Exhaustive.optimum c ~limit:3)

let test_stats_reported () =
  let profiles = synthetic ~seed:42 ~results:3 in
  let c = Dod.make_context profiles in
  let _, sstats = Single_swap.generate_with_stats c ~limit:4 in
  check Alcotest.bool "rounds >= 1" true (sstats.Single_swap.rounds >= 1);
  let _, mstats = Multi_swap.generate_with_stats c ~limit:4 in
  check Alcotest.bool "rounds >= 1" true (mstats.Multi_swap.rounds >= 1)

let test_invalid_init_rejected () =
  let profiles = synthetic ~seed:5 ~results:2 in
  let c = Dod.make_context profiles in
  let oversized = Array.map (fun p -> Topk.generate_one ~limit:100 p) profiles in
  Alcotest.check_raises "single-swap rejects oversized init"
    (Invalid_argument "Single_swap.generate: invalid initial DFS 0") (fun () ->
      ignore (Single_swap.generate ~init:oversized c ~limit:1));
  Alcotest.check_raises "multi-swap rejects oversized init"
    (Invalid_argument "Multi_swap.generate: invalid initial DFS 0") (fun () ->
      ignore (Multi_swap.generate ~init:oversized c ~limit:1))

let test_exhaustive_guard () =
  let profiles =
    Xsact_workload.Workload.synthetic_profiles ~seed:1 ~results:4 ~entities:3
      ~types_per_entity:6 ~values_per_type:4 ~max_count:9
  in
  let c = Dod.make_context profiles in
  match Exhaustive.generate ~max_states:1000 c ~limit:10 with
  | exception Exhaustive.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_enumerate_valid_small () =
  (* One entity, two types with significances 2 > 1, one feature each.
     Valid selections within limit 2: {}, {t_hi}, {t_hi, t_lo}. *)
  let p =
    Result_profile.make ~label:"r" ~populations:[]
      [ (f ~e:"e" ~a:"hi" ~v:"x", 2); (f ~e:"e" ~a:"lo" ~v:"y", 1) ]
  in
  let all = Exhaustive.enumerate_valid ~limit:2 p in
  check Alcotest.int "3 valid DFSs" 3 (List.length all);
  List.iter
    (fun d -> check Alcotest.bool "each valid" true (Dfs.is_valid ~limit:2 d))
    all

(* The DP's tables are sized by what a result can hold, not by the
   caller's bound: every bound from the largest result's feature count up
   is the same bound, max_int included. *)
let test_limit_past_features () =
  let profiles = synthetic ~seed:11 ~results:3 in
  let c = Dod.make_context profiles in
  let largest =
    Array.fold_left
      (fun acc p -> max acc p.Result_profile.total_features)
      0 profiles
  in
  let qs limit = Array.map Dfs.to_q_array (Multi_swap.generate c ~limit) in
  check Alcotest.bool "largest + 100 = largest" true
    (qs (largest + 100) = qs largest);
  check Alcotest.bool "max_int = largest" true (qs max_int = qs largest)

let test_greedy_comparable () =
  let profiles = synthetic ~seed:7 ~results:3 in
  let c = Dod.make_context profiles in
  let greedy = Dod.total c (Greedy.generate c ~limit:5) in
  let topk = Dod.total c (Topk.generate c ~limit:5) in
  check Alcotest.bool "greedy >= topk here" true (greedy >= topk)

(* Multi-swap strictly beats single-swap on a measurable fraction of random
   instances (the Figure 4(a) phenomenon); equality is common, regression
   would be multi < single somewhere. *)
let test_multi_vs_single_statistics () =
  let wins = ref 0 and losses = ref 0 in
  for seed = 0 to 120 do
    let profiles = deep_gap_config seed in
    let c = Dod.make_context profiles in
    let s = Dod.total c (Single_swap.generate c ~limit:5) in
    let m = Dod.total c (Multi_swap.generate c ~limit:5) in
    if m > s then incr wins;
    if m < s then incr losses
  done;
  check Alcotest.bool
    (Printf.sprintf "multi wins on several instances (got %d)" !wins)
    true (!wins >= 5);
  (* Not a theorem that multi >= single pointwise (they reach different
     local optima), but wins should dominate losses. *)
  check Alcotest.bool
    (Printf.sprintf "multi wins (%d) outnumber losses (%d)" !wins !losses)
    true
    (!wins > !losses)

(* ---- Exact-output goldens -------------------------------------------------- *)

(* Figure 4(a): per-query DoD of the four reported methods on QM1..QM8
   (IMDB, top 5, L = 8) — the table EXPERIMENTS.md reproduces. *)
let fig4a_golden =
  [
    ("QM1", [ 30; 30; 64; 64 ]);
    ("QM2", [ 10; 10; 64; 64 ]);
    ("QM3", [ 19; 19; 51; 51 ]);
    ("QM4", [ 25; 25; 63; 63 ]);
    ("QM5", [ 30; 30; 63; 63 ]);
    ("QM6", [ 28; 28; 67; 67 ]);
    ("QM7", [ 22; 22; 57; 58 ]);
    ("QM8", [ 28; 28; 61; 61 ]);
  ]

let test_fig4a_golden () =
  let algs =
    Algorithm.[ Topk; Greedy; Single_swap; Multi_swap ]
  in
  let got =
    List.map
      (fun (inst : Xsact_workload.Workload.instance) ->
        let c = Dod.make_context inst.profiles in
        let dod a = Dod.total c (Algorithm.generate a c ~limit:8) in
        (inst.label, List.map dod algs))
      (Xsact_workload.Workload.imdb_qm ~top:5 ()).queries
  in
  check
    Alcotest.(list (pair string (list int)))
    "per-query DoD: topk, greedy, single-swap, multi-swap" fig4a_golden got;
  let total k = List.fold_left (fun acc (_, d) -> acc + List.nth d k) 0 got in
  check Alcotest.(list int) "totals" [ 192; 192; 490; 491 ]
    (List.init 4 total)

(* The exact DFS q-vectors of every variant over a seeded sweep (2-30
   results, L from 1 to past every result's size, uniform and a
   zero-including weighting), one MD5 per variant. A value-only oracle
   cannot see a kernel change that picks a different optimum of equal
   packed gain; these digests can. *)
let sweep_variants =
  [
    ("topk", Topk.generate);
    ("greedy", Greedy.generate);
    ("single-swap", fun c ~limit -> Single_swap.generate c ~limit);
    ("multi-swap", fun c ~limit -> Multi_swap.generate c ~limit);
    ( "multi-swap spread:false",
      fun c ~limit -> Multi_swap.generate ~spread:false c ~limit );
  ]

let sweep_digests =
  [
    ("topk", "cd4001b4c57e62ab9d0f662986a3e36d");
    ("greedy", "5205aeb8c1cd9940297097640da69ba5");
    ("single-swap", "61c9cbad463ca6de3b349b4e487a2e96");
    ("multi-swap", "6ab009c9bdc005359647a7f7ef321fb4");
    ("multi-swap spread:false", "0cd4b7311e077b2cd5946c91983fd2ec");
  ]

let test_sweep_digest () =
  let bufs =
    List.map (fun (name, _) -> (name, Buffer.create 4096)) sweep_variants
  in
  let skewed (t : Feature.ftype) = Hashtbl.hash (t.entity, t.attribute) mod 4 in
  List.iter
    (fun results ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed:(1000 + results)
          ~results ~entities:3 ~types_per_entity:4 ~values_per_type:4
          ~max_count:3
      in
      List.iter
        (fun c ->
          List.iter
            (fun limit ->
              List.iter
                (fun (name, gen) ->
                  let buf = List.assoc name bufs in
                  Array.iter
                    (fun d ->
                      Array.iter
                        (fun q -> Buffer.add_string buf (string_of_int q ^ ","))
                        (Dfs.to_q_array d);
                      Buffer.add_char buf ';')
                    (gen c ~limit);
                  Buffer.add_char buf '\n')
                sweep_variants)
            [ 1; 2; 3; 5; 8; 13; 40 ])
        [ Dod.make_context profiles; Dod.make_context ~weight:skewed profiles ])
    [ 2; 3; 4; 5; 6; 8; 10; 13; 16; 20; 25; 30 ];
  check
    Alcotest.(list (pair string string))
    "q-vector digest per variant" sweep_digests
    (List.map
       (fun (name, buf) ->
         (name, Digest.to_hex (Digest.string (Buffer.contents buf))))
       bufs)

let () =
  Alcotest.run "xsact_algorithms"
    [
      ( "postconditions",
        [
          qtest prop_outputs_valid;
          qtest prop_budget_used;
          qtest prop_single_swap_no_improving_move;
          qtest prop_multi_swap_is_single_swap_optimal;
        ] );
      ( "quality",
        [
          qtest prop_swaps_dominate_topk;
          qtest prop_bounded_by_optimum;
          qtest prop_best_response_exact;
          qtest prop_best_response_curves_exact;
          qtest prop_curves_reference;
          Alcotest.test_case "pinned seeds: multi beats single" `Quick
            test_multi_beats_single_on_pinned_instance;
          Alcotest.test_case "fixed instance optimum" `Quick
            test_fixed_instance_values;
          Alcotest.test_case "multi vs single statistics" `Slow
            test_multi_vs_single_statistics;
          Alcotest.test_case "greedy sanity" `Quick test_greedy_comparable;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "stats" `Quick test_stats_reported;
          Alcotest.test_case "invalid init" `Quick test_invalid_init_rejected;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "enumerate_valid" `Quick test_enumerate_valid_small;
          Alcotest.test_case "limit past every result's features" `Quick
            test_limit_past_features;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "Fig. 4(a) DoD table" `Quick test_fig4a_golden;
          Alcotest.test_case "sweep q-vector digests" `Quick test_sweep_digest;
        ] );
    ]
