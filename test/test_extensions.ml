(* Tests for the extension features: weighted DoD ("interestingness"),
   built-in weightings, the stochastic optimizers, and interactive
   comparison sessions. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v

let synthetic ~seed ~results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:2
    ~types_per_entity:3 ~values_per_type:2 ~max_count:4

(* ---- Weighted DoD ---------------------------------------------------------- *)

let two_type_profiles () =
  let mk label title year =
    Result_profile.make ~label ~populations:[]
      [
        (f ~e:"m" ~a:"title" ~v:title, 1);
        (f ~e:"m" ~a:"year" ~v:year, 1);
      ]
  in
  [| mk "A" "Alpha" "1999"; mk "B" "Beta" "2005" |]

let test_weighted_total () =
  let profiles = two_type_profiles () in
  let weight (t : Feature.ftype) = if t.Feature.attribute = "title" then 5 else 1 in
  let c = Dod.make_context ~weight profiles in
  let full = Array.map (fun p -> Topk.generate_one ~limit:10 p) profiles in
  (* title differentiates (weight 5) + year differentiates (weight 1). *)
  check Alcotest.int "weighted total" 6 (Dod.total c full);
  let uniform = Dod.make_context profiles in
  check Alcotest.int "uniform total" 2 (Dod.total uniform full)

let test_weighted_negative_rejected () =
  let profiles = two_type_profiles () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dod.make_context: negative weight") (fun () ->
      ignore (Dod.make_context ~weight:(fun _ -> -1) profiles))

let test_weighted_steering () =
  (* Two competing types fit in a budget of 1: with a heavy weight on
     "year", every algorithm must choose year over title. *)
  let mk label title year =
    Result_profile.make ~label ~populations:[]
      [
        (f ~e:"m" ~a:"title" ~v:title, 1);
        (f ~e:"m" ~a:"year" ~v:year, 1);
      ]
  in
  let profiles = [| mk "A" "Alpha" "1999"; mk "B" "Beta" "2005" |] in
  let weight (t : Feature.ftype) = if t.Feature.attribute = "year" then 10 else 1 in
  let c = Dod.make_context ~weight profiles in
  List.iter
    (fun alg ->
      let dfss = Algorithm.generate alg c ~limit:1 in
      let year_gi p =
        Option.get
          (Result_profile.find_type p { Feature.entity = "m"; attribute = "year" })
      in
      Array.iteri
        (fun i d ->
          check Alcotest.bool
            (Algorithm.to_string alg ^ " picks year")
            true
            (Dfs.q d (year_gi (Dod.results c).(i)) = 1))
        dfss)
    [ Algorithm.Single_swap; Algorithm.Multi_swap ]

let prop_weighted_consistency =
  (* delta_for_type remains exact under random weights. *)
  QCheck.Test.make ~name:"weighted delta_for_type consistent" ~count:150
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 5)))
    (fun (seed, wseed) ->
      let profiles = synthetic ~seed ~results:3 in
      let weight (t : Feature.ftype) =
        1 + ((Hashtbl.hash (t, wseed)) mod 4)
      in
      let c = Dod.make_context ~weight profiles in
      let dfss = Topk.generate c ~limit:4 in
      let ok = ref true in
      let p0 = profiles.(0) in
      for gi = 0 to Result_profile.num_types p0 - 1 do
        let old_q = Dfs.q dfss.(0) gi in
        let max_q = Array.length (Result_profile.type_info p0 gi).features in
        for new_q = 0 to max_q do
          let delta = Dod.delta_for_type c ~dfss ~i:0 ~gi ~old_q ~new_q in
          let changed = Array.copy dfss in
          changed.(0) <- Dfs.set_q dfss.(0) gi new_q;
          if delta <> Dod.total c changed - Dod.total c dfss then ok := false
        done
      done;
      !ok)

(* ---- Weighting helpers ------------------------------------------------------ *)

let test_weighting_helpers () =
  let t ~e ~a : Feature.ftype = { Feature.entity = e; attribute = a } in
  check Alcotest.int "uniform" 1 (Weighting.uniform (t ~e:"x" ~a:"y"));
  let w = Weighting.by_attribute [ ("price", 3); ("battery", 2) ] in
  check Alcotest.int "price matched" 3 (w (t ~e:"product" ~a:"price"));
  check Alcotest.int "substring matched" 2
    (w (t ~e:"review" ~a:"pro:long-battery-life"));
  check Alcotest.int "default" 1 (w (t ~e:"product" ~a:"name"));
  let we = Weighting.by_entity ~default:0 [ ("review", 2) ] in
  check Alcotest.int "entity matched" 2 (we (t ~e:"review" ~a:"x"));
  check Alcotest.int "entity default" 0 (we (t ~e:"product" ~a:"x"))

let test_weighting_evidence () =
  let profiles = Xsact_workload.Workload.paper_gps_profiles () in
  let w = Weighting.evidence profiles in
  (* satellites has significance 44 -> weight 1 + floor(log2 44) = 6. *)
  check Alcotest.int "high evidence" 6
    (w { Feature.entity = "review"; attribute = "pro:acquires-satellites-quickly" });
  (* product name: significance 1 -> weight 1. *)
  check Alcotest.int "unit evidence" 1
    (w { Feature.entity = "product"; attribute = "name" });
  check Alcotest.int "unknown type" 1
    (w { Feature.entity = "zz"; attribute = "zz" })

(* ---- Stochastic optimizers --------------------------------------------------- *)

let test_random_valid_dfs () =
  let g = Xsact_util.Prng.of_int 5 in
  let profiles = synthetic ~seed:1 ~results:1 in
  for limit = 1 to 8 do
    let d = Stochastic.random_valid_dfs g ~limit profiles.(0) in
    check Alcotest.bool "valid" true (Dfs.is_valid ~limit d);
    check Alcotest.int "fills budget"
      (min limit profiles.(0).Result_profile.total_features)
      (Dfs.size d)
  done

let test_anneal_quality () =
  let profiles = synthetic ~seed:3 ~results:3 in
  let c = Dod.make_context profiles in
  let annealed = Stochastic.anneal c ~limit:5 in
  Array.iter
    (fun d -> check Alcotest.bool "valid" true (Dfs.is_valid ~limit:5 d))
    annealed;
  (* The polish step guarantees at least local optimality; sanity: at least
     the topk value. *)
  let topk = Dod.total c (Topk.generate c ~limit:5) in
  check Alcotest.bool "anneal >= topk" true (Dod.total c annealed >= topk);
  (* Deterministic given the seed. *)
  let again = Stochastic.anneal c ~limit:5 in
  check Alcotest.bool "deterministic" true
    (Array.for_all2 Dfs.equal annealed again)

let test_restarts_quality () =
  let profiles = synthetic ~seed:9 ~results:3 in
  let c = Dod.make_context profiles in
  let restarted = Stochastic.restarts ~rounds:4 c ~limit:5 in
  let single = Dod.total c (Single_swap.generate c ~limit:5) in
  (* Restarts include the plain single-swap run, so can only be >= it. *)
  check Alcotest.bool "restarts >= single-swap" true
    (Dod.total c restarted >= single);
  Array.iter
    (fun d -> check Alcotest.bool "valid" true (Dfs.is_valid ~limit:5 d))
    restarted

(* ---- Sessions ------------------------------------------------------------------ *)

let session_profiles n =
  Array.to_list
    (Xsact_workload.Workload.synthetic_profiles ~seed:77 ~results:n ~entities:1
       ~types_per_entity:5 ~values_per_type:3 ~max_count:2)

let create_ok ?(algorithm = Algorithm.Multi_swap) profiles ~size_bound =
  let config = Config.(default |> with_algorithm algorithm) in
  match Session.create ~config ~size_bound profiles with
  | Ok s -> s
  | Error e -> Alcotest.failf "session create: %s" (Error.to_string e)

let test_session_create () =
  let s = create_ok (session_profiles 3) ~size_bound:4 in
  check Alcotest.int "three results" 3 (Array.length (Session.profiles s));
  check Alcotest.int "L" 4 (Session.size_bound s);
  check Alcotest.bool "positive dod" true (Session.dod s > 0);
  check Alcotest.int "table columns" 3
    (Array.length (Session.table s).Table.labels);
  (match Session.create ~size_bound:4 [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty session accepted");
  match
    Session.create
      ~config:Config.(default |> with_algorithm Algorithm.Exhaustive)
      ~size_bound:4 (session_profiles 2)
  with
  | Error (Error.Unsupported_algorithm "exhaustive") -> ()
  | Error e -> Alcotest.failf "wrong variant: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "exhaustive session accepted"

let test_session_add_remove () =
  let all = session_profiles 4 in
  let first3 = List.filteri (fun i _ -> i < 3) all in
  let s = create_ok first3 ~size_bound:4 in
  let s4 = Result.get_ok (Session.apply s [ Session.Add (List.nth all 3) ]) in
  check Alcotest.int "four results" 4 (Array.length (Session.profiles s4));
  (* Warm-started result equals the cold computation's DoD (both are
     multi-swap optima over the same inputs; values must match the cold run
     exactly here because the instance is small). *)
  let cold = create_ok all ~size_bound:4 in
  check Alcotest.bool "warm dod >= cold topk baseline" true
    (Session.dod s4 >= Session.dod cold - 2);
  (* Remove back down. *)
  (match Session.apply s4 [ Session.Remove 3 ] with
  | Ok s3 ->
    check Alcotest.int "back to three" 3 (Array.length (Session.profiles s3));
    check Alcotest.int "same profiles" 3 (Array.length (Session.dfss s3))
  | Error e -> Alcotest.failf "remove: %s" (Error.to_string e));
  (match Session.apply s4 [ Session.Remove 9 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out of range accepted");
  let s2 = create_ok (List.filteri (fun i _ -> i < 2) all) ~size_bound:4 in
  match Session.apply s2 [ Session.Remove 0 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dropped below two results"

let test_session_resize () =
  let s = create_ok (session_profiles 3) ~size_bound:3 in
  (match Session.apply s [ Session.Set_size_bound 6 ] with
  | Ok bigger ->
    check Alcotest.bool "dod grows or stays" true
      (Session.dod bigger >= Session.dod s);
    Array.iter
      (fun d -> check Alcotest.bool "valid at 6" true (Dfs.is_valid ~limit:6 d))
      (Session.dfss bigger);
    (match Session.apply bigger [ Session.Set_size_bound 2 ] with
    | Ok smaller ->
      Array.iter
        (fun d ->
          check Alcotest.bool "valid at 2" true (Dfs.is_valid ~limit:2 d))
        (Session.dfss smaller)
    | Error e -> Alcotest.failf "shrink: %s" (Error.to_string e))
  | Error e -> Alcotest.failf "grow: %s" (Error.to_string e));
  match Session.apply s [ Session.Set_size_bound 0 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "L=0 accepted"

let prop_session_matches_direct =
  (* A fresh session's state equals running the algorithm directly. *)
  QCheck.Test.make ~name:"fresh session = direct multi-swap" ~count:60
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 6)))
    (fun (seed, limit) ->
      let profiles = synthetic ~seed ~results:3 in
      match Session.create ~size_bound:limit (Array.to_list profiles) with
      | Error _ -> false
      | Ok s ->
        let c = Dod.make_context profiles in
        Session.dod s = Dod.total c (Multi_swap.generate c ~limit))

let test_session_warm_start_counts () =
  let s = create_ok (session_profiles 3) ~size_bound:4 in
  let before = Session.stats s in
  let s' =
    Result.get_ok
      (Session.apply s [ Session.Add (List.nth (session_profiles 4) 3) ])
  in
  check Alcotest.bool "one more run" true (Session.stats s' = before + 1)

let () =
  Alcotest.run "xsact_extensions"
    [
      ( "weighted-dod",
        [
          Alcotest.test_case "weighted total" `Quick test_weighted_total;
          Alcotest.test_case "negative rejected" `Quick
            test_weighted_negative_rejected;
          Alcotest.test_case "steering" `Quick test_weighted_steering;
          qtest prop_weighted_consistency;
        ] );
      ( "weighting",
        [
          Alcotest.test_case "helpers" `Quick test_weighting_helpers;
          Alcotest.test_case "evidence" `Quick test_weighting_evidence;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "random valid dfs" `Quick test_random_valid_dfs;
          Alcotest.test_case "annealing" `Quick test_anneal_quality;
          Alcotest.test_case "restarts" `Quick test_restarts_quality;
        ] );
      ( "session",
        [
          Alcotest.test_case "create" `Quick test_session_create;
          Alcotest.test_case "add/remove" `Quick test_session_add_remove;
          Alcotest.test_case "resize" `Quick test_session_resize;
          Alcotest.test_case "warm-start counter" `Quick
            test_session_warm_start_counts;
          qtest prop_session_matches_direct;
        ] );
    ]
