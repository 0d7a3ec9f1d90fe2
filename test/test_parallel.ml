(* The multicore DoD engine: Domain_pool behavior, and determinism of
   context construction and the algorithms across domain counts — the
   parallel and sequential paths must produce bit-identical links tables,
   DoD totals, and DFSs. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

open Xsact_util

(* Domain counts whose engines must agree. *)
let domain_counts = [ 1; 2; 4 ]

(* ---- Domain_pool ------------------------------------------------------- *)

let test_pool_covers_range () =
  let pool = Domain_pool.get ~domains:4 in
  let n = 1000 in
  let hits = Array.make n 0 in
  Domain_pool.parallel_for pool ~n ~chunk:(fun lo hi ->
      for k = lo to hi - 1 do
        hits.(k) <- hits.(k) + 1
      done);
  Array.iteri
    (fun k c -> if c <> 1 then Alcotest.failf "index %d run %d times" k c)
    hits

let test_pool_empty_and_tiny () =
  let pool = Domain_pool.get ~domains:4 in
  Domain_pool.parallel_for pool ~n:0 ~chunk:(fun _ _ ->
      Alcotest.fail "chunk on empty range");
  (* n smaller than the chunk budget still covers exactly once *)
  let hits = Array.make 3 0 in
  Domain_pool.parallel_for pool ~n:3 ~chunk:(fun lo hi ->
      for k = lo to hi - 1 do
        hits.(k) <- hits.(k) + 1
      done);
  check (Alcotest.array Alcotest.int) "tiny range" [| 1; 1; 1 |] hits

let test_map_reduce_sum () =
  let pool = Domain_pool.get ~domains:3 in
  let n = 12345 in
  let sum lo hi =
    let s = ref 0 in
    for k = lo to hi - 1 do
      s := !s + k
    done;
    !s
  in
  check Alcotest.int "triangular sum"
    (n * (n - 1) / 2)
    (Domain_pool.map_reduce pool ~n ~map:sum ~reduce:( + ) ~init:0)

(* A non-commutative reduction still sees chunk results in ascending range
   order, whatever domain computed them. *)
let test_map_reduce_ordered () =
  let pool = Domain_pool.get ~domains:4 in
  let parts =
    Domain_pool.map_reduce pool ~n:997 ~map:(fun lo hi -> [ (lo, hi) ])
      ~reduce:( @ ) ~init:[]
  in
  let rec contiguous from = function
    | [] -> from = 997
    | (lo, hi) :: rest -> lo = from && hi > lo && contiguous hi rest
  in
  check Alcotest.bool "ascending contiguous cover" true (contiguous 0 parts)

let test_pool_exception_propagates () =
  let pool = Domain_pool.get ~domains:4 in
  Alcotest.check_raises "first chunk exception re-raised" Exit (fun () ->
      Domain_pool.parallel_for pool ~n:100 ~chunk:(fun lo _ ->
          if lo = 0 then raise Exit));
  (* the pool survives a failed job *)
  let total =
    Domain_pool.map_reduce pool ~n:100 ~map:(fun lo hi -> hi - lo)
      ~reduce:( + ) ~init:0
  in
  check Alcotest.int "pool alive after failure" 100 total

let test_pool_create_shutdown () =
  let pool = Domain_pool.create ~domains:2 in
  check Alcotest.int "domains" 2 (Domain_pool.domains pool);
  let hits = ref 0 in
  Domain_pool.parallel_for pool ~n:10 ~chunk:(fun lo hi ->
      ignore lo;
      ignore hi);
  ignore !hits;
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool (* idempotent *)

let test_pool_memoized () =
  check Alcotest.bool "get is memoized" true
    (Domain_pool.get ~domains:3 == Domain_pool.get ~domains:3);
  check Alcotest.int "size 1 pool is sequential" 1
    (Domain_pool.domains (Domain_pool.get ~domains:1))

(* Jobs racing in from several systhreads (the xsact-serve worker pool
   does exactly this) must serialize behind the submit mutex: every job
   covers its range exactly once, none corrupt each other. *)
let test_pool_concurrent_submitters () =
  let pool = Domain_pool.get ~domains:4 in
  let submitters = 6 and jobs_each = 5 and n = 512 in
  let bad = ref [] in
  let bad_mutex = Mutex.create () in
  let submitter s =
    for j = 0 to jobs_each - 1 do
      let hits = Array.make n 0 in
      Domain_pool.parallel_for pool ~n ~chunk:(fun lo hi ->
          for k = lo to hi - 1 do
            hits.(k) <- hits.(k) + 1
          done);
      Array.iteri
        (fun k c ->
          if c <> 1 then begin
            Mutex.lock bad_mutex;
            bad := (s, j, k, c) :: !bad;
            Mutex.unlock bad_mutex
          end)
        hits
    done
  in
  let threads = List.init submitters (fun s -> Thread.create submitter s) in
  List.iter Thread.join threads;
  match !bad with
  | [] -> ()
  | (s, j, k, c) :: _ ->
    Alcotest.failf "submitter %d job %d: index %d run %d times" s j k c

(* ---- Engine determinism across domain counts --------------------------- *)

let synthetic seed results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:2
    ~types_per_entity:4 ~values_per_type:3 ~max_count:5

(* Canonical dump of every link list of the context, for structural
   comparison (Dod.link is all ints, so [=] is exact). *)
let links_dump c =
  let n = Dod.num_results c in
  List.init n (fun i ->
      let p = (Dod.results c).(i) in
      List.init (Result_profile.num_types p) (fun gi -> Dod.links c ~i ~gi))

let prop_context_deterministic =
  QCheck.Test.make ~name:"make_context identical for every domain count"
    ~count:60
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 8)))
    (fun (seed, results) ->
      let profiles = synthetic seed results in
      let reference = Dod.make_context ~domains:1 profiles in
      let ref_links = links_dump reference in
      let full = Topk.generate reference ~limit:1000 in
      List.for_all
        (fun domains ->
          let c = Dod.make_context ~domains profiles in
          links_dump c = ref_links
          && Dod.total c full = Dod.total reference full
          && List.for_all
               (fun (i, j) ->
                 Dod.upper_bound_pair c ~i ~j
                 = Dod.upper_bound_pair reference ~i ~j)
               (List.concat
                  (List.init results (fun i ->
                       List.init (results - i - 1) (fun k -> (i, i + k + 1))))))
        domain_counts)

let prop_algorithms_deterministic =
  QCheck.Test.make
    ~name:"single/multi-swap identical for every domain count and cache"
    ~count:40
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 5)))
    (fun (seed, results) ->
      let profiles = synthetic seed results in
      let qs dfss = Array.to_list (Array.map Dfs.to_q_array dfss) in
      let reference = Dod.make_context ~domains:1 profiles in
      let single_ref = qs (Single_swap.generate reference ~limit:6) in
      let multi_ref = qs (Multi_swap.generate ~domains:1 reference ~limit:6) in
      let nocache_ref =
        qs (Multi_swap.generate ~cache:false ~domains:1 reference ~limit:6)
      in
      multi_ref = nocache_ref
      && List.for_all
           (fun domains ->
             let c = Dod.make_context ~domains profiles in
             qs (Single_swap.generate c ~limit:6) = single_ref
             && qs (Multi_swap.generate ~domains c ~limit:6) = multi_ref)
           domain_counts)

let prop_best_response_cache_exact =
  QCheck.Test.make
    ~name:"precomputed thresholds = per-call recomputation in best_response"
    ~count:60
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let profiles = synthetic seed 3 in
      let c = Dod.make_context ~domains:1 profiles in
      let dfss = Topk.generate c ~limit:5 in
      let ok = ref true in
      for i = 0 to 2 do
        let thresholds = Multi_swap.compute_thresholds c dfss i in
        let with_cache =
          Multi_swap.best_response ~thresholds c ~limit:5 dfss i
        in
        let without = Multi_swap.best_response c ~limit:5 dfss i in
        if Dfs.to_q_array with_cache <> Dfs.to_q_array without then ok := false
      done;
      !ok)

(* End-to-end: the full pipeline comparison is identical under the
   environment-requested parallelism and the sequential engine. *)
let test_pipeline_domains_identical () =
  let profiles = synthetic 7 5 in
  let run domains =
    match
      Pipeline.compare_profiles
        ~config:(Config.with_domains domains Config.default)
        ~keywords:"synthetic" ~size_bound:6 profiles
    with
    | Ok c -> (c.Pipeline.dod, Array.map Dfs.to_q_array c.Pipeline.dfss)
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let dod1, dfss1 = run 1 in
  List.iter
    (fun domains ->
      let dod, dfss = run domains in
      check Alcotest.int
        (Printf.sprintf "dod at %d domains" domains)
        dod1 dod;
      if dfss <> dfss1 then
        Alcotest.failf "DFSs differ at %d domains" domains)
    (List.filter (fun d -> d > 1) (domain_counts @ [ 8 ]))

(* Regression for the PR-1 inconsistency: Session.create used to drop the
   domain count on the floor, so sessions always ran sequentially. Sessions
   must now honor Config.domains — and, like everything else in the engine,
   produce bit-identical DoD and DFSs for every domain count, through the
   warm-started operations too. *)
let test_session_domains_identical () =
  let profiles = Array.to_list (synthetic 11 4) in
  let extra = (synthetic 12 5).(4) in
  let run domains =
    let config = Config.(default |> with_domains domains) in
    match Session.create ~config ~size_bound:5 profiles with
    | Error e -> Alcotest.fail (Error.to_string e)
    | Ok s ->
      let s = Session.add s extra in
      let s =
        match Session.set_size_bound s 7 with
        | Ok s -> s
        | Error e -> Alcotest.fail (Error.to_string e)
      in
      check Alcotest.int
        (Printf.sprintf "config keeps %d domains" domains)
        domains
        (Option.value ~default:(-1) (Session.config s).Config.domains);
      (Session.dod s, Array.map Dfs.to_q_array (Session.dfss s))
  in
  let dod1, dfss1 = run 1 in
  List.iter
    (fun domains ->
      let dod, dfss = run domains in
      check Alcotest.int
        (Printf.sprintf "session dod at %d domains" domains)
        dod1 dod;
      if dfss <> dfss1 then
        Alcotest.failf "session DFSs differ at %d domains" domains)
    (List.filter (fun d -> d > 1) domain_counts)

let () =
  Alcotest.run "xsact_parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "covers range once" `Quick test_pool_covers_range;
          Alcotest.test_case "empty and tiny ranges" `Quick
            test_pool_empty_and_tiny;
          Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_ordered;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "create/shutdown" `Quick test_pool_create_shutdown;
          Alcotest.test_case "get memoized" `Quick test_pool_memoized;
          Alcotest.test_case "concurrent submitters" `Quick
            test_pool_concurrent_submitters;
        ] );
      ( "determinism",
        [
          qtest prop_context_deterministic;
          qtest prop_algorithms_deterministic;
          qtest prop_best_response_cache_exact;
          Alcotest.test_case "pipeline identical across domains" `Quick
            test_pipeline_domains_identical;
          Alcotest.test_case "session honors configured domains" `Quick
            test_session_domains_identical;
        ] );
    ]
