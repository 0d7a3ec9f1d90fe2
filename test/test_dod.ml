(* Tests for the Degree-of-Differentiation objective: differentiability
   semantics, threshold edge cases, raw vs. rate measures, pair tables,
   incremental deltas, and the paper's DoD algebra. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let f ~e ~a ~v = Feature.make ~entity:e ~attribute:a ~value:v

let profile label ?(populations = []) features =
  Result_profile.make ~label ~populations features

let find p ~e ~a =
  Option.get (Result_profile.find_type p { Feature.entity = e; attribute = a })

(* Full DFS: everything selected (within a generous limit). *)
let full p = Topk.generate_one ~limit:1000 p

(* ---- Differentiability semantics --------------------------------------- *)

(* Same type, same single feature, equal counts: NOT differentiable. *)
let test_equal_counts_not_differentiable () =
  let p1 = profile "A" [ (f ~e:"m" ~a:"genre" ~v:"Action", 3) ] in
  let p2 = profile "B" [ (f ~e:"m" ~a:"genre" ~v:"Action", 3) ] in
  let c = Dod.make_context [| p1; p2 |] in
  check Alcotest.int "dod 0" 0 (Dod.total c [| full p1; full p2 |])

(* Different values of a shared type: differentiable (absent counts as 0). *)
let test_different_values_differentiable () =
  let p1 = profile "A" [ (f ~e:"m" ~a:"title" ~v:"Alpha", 1) ] in
  let p2 = profile "B" [ (f ~e:"m" ~a:"title" ~v:"Beta", 1) ] in
  let c = Dod.make_context [| p1; p2 |] in
  check Alcotest.int "dod 1" 1 (Dod.total c [| full p1; full p2 |])

(* Unshared types never differentiate ("null means unknown"). *)
let test_unshared_type_not_comparable () =
  let p1 = profile "A" [ (f ~e:"m" ~a:"alpha" ~v:"x", 5) ] in
  let p2 = profile "B" [ (f ~e:"m" ~a:"beta" ~v:"y", 5) ] in
  let c = Dod.make_context [| p1; p2 |] in
  check Alcotest.int "dod 0" 0 (Dod.total c [| full p1; full p2 |])

(* The 10% threshold: 10 vs 11 differs by 1 = 10% of 10, NOT more than 10%.
   10 vs 12 differs by 2 = 20% > 10%. *)
let test_threshold_edge () =
  let make a b =
    let p1 = profile "A" [ (f ~e:"r" ~a:"pro" ~v:"yes", a) ] in
    let p2 = profile "B" [ (f ~e:"r" ~a:"pro" ~v:"yes", b) ] in
    let c = Dod.make_context [| p1; p2 |] in
    Dod.total c [| full p1; full p2 |]
  in
  check Alcotest.int "10 vs 11 below threshold" 0 (make 10 11);
  check Alcotest.int "10 vs 12 above threshold" 1 (make 10 12);
  check Alcotest.int "equal" 0 (make 7 7)

let test_threshold_zero_pct () =
  let params = { Dod.threshold_pct = 0.0; measure = Dod.Raw } in
  let p1 = profile "A" [ (f ~e:"r" ~a:"pro" ~v:"yes", 10) ] in
  let p2 = profile "B" [ (f ~e:"r" ~a:"pro" ~v:"yes", 11) ] in
  let c = Dod.make_context ~params [| p1; p2 |] in
  check Alcotest.int "any difference counts at x=0" 1
    (Dod.total c [| full p1; full p2 |]);
  let c2 =
    Dod.make_context ~params [| profile "A" [ (f ~e:"r" ~a:"p" ~v:"y", 5) ];
                                profile "B" [ (f ~e:"r" ~a:"p" ~v:"y", 5) ] |]
  in
  let p1' = (Dod.results c2).(0) and p2' = (Dod.results c2).(1) in
  check Alcotest.int "equal still 0 at x=0" 0
    (Dod.total c2 [| full p1'; full p2' |])

(* Rate measure: 8/11 vs 38/68 -> 73% vs 56%: differentiable; raw also. But
   5/10 vs 10/20 -> both 50%: rate says no, raw says yes. *)
let test_rate_vs_raw () =
  let p1 =
    profile "A" ~populations:[ ("r", 10) ] [ (f ~e:"r" ~a:"pro" ~v:"yes", 5) ]
  in
  let p2 =
    profile "B" ~populations:[ ("r", 20) ] [ (f ~e:"r" ~a:"pro" ~v:"yes", 10) ]
  in
  let raw = Dod.make_context [| p1; p2 |] in
  check Alcotest.int "raw sees 5 vs 10" 1 (Dod.total raw [| full p1; full p2 |]);
  let rate =
    Dod.make_context ~params:{ Dod.threshold_pct = 10.0; measure = Dod.Rate }
      [| p1; p2 |]
  in
  check Alcotest.int "rate sees 50% vs 50%" 0
    (Dod.total rate [| full p1; full p2 |])

(* Both sides must select the type: q = 0 on either side kills it. *)
let test_requires_both_selected () =
  let p1 = profile "A" [ (f ~e:"m" ~a:"title" ~v:"Alpha", 1) ] in
  let p2 = profile "B" [ (f ~e:"m" ~a:"title" ~v:"Beta", 1) ] in
  let c = Dod.make_context [| p1; p2 |] in
  check Alcotest.int "one side empty" 0
    (Dod.total c [| Dfs.empty p1; full p2 |])

(* A gap feature selected only on ONE side still differentiates, as long as
   the other side selects the type at all. *)
let test_gap_via_other_side () =
  let p1 =
    profile "A"
      [ (f ~e:"m" ~a:"genre" ~v:"Action", 1); (f ~e:"m" ~a:"genre" ~v:"Drama", 1) ]
  in
  let p2 =
    profile "B"
      [ (f ~e:"m" ~a:"genre" ~v:"Action", 1); (f ~e:"m" ~a:"genre" ~v:"Western", 1) ]
  in
  let c = Dod.make_context [| p1; p2 |] in
  let gi1 = find p1 ~e:"m" ~a:"genre" in
  let gi2 = find p2 ~e:"m" ~a:"genre" in
  (* D1 selects only Action (q=1, the canonical head); D2 selects both.
     Drama/Western (selected in D2's prefix) witness the gap. *)
  let d1 = Dfs.set_q (Dfs.empty p1) gi1 1 in
  let d2 = Dfs.set_q (Dfs.empty p2) gi2 2 in
  check Alcotest.int "other-side witness" 1 (Dod.total c [| d1; d2 |]);
  (* With q=1 on both sides, the only visible feature is Action (equal):
     not differentiable. *)
  let d2' = Dfs.set_q (Dfs.empty p2) gi2 1 in
  check Alcotest.int "equal heads only" 0 (Dod.total c [| d1; d2' |])

(* ---- Multi-result DoD algebra -------------------------------------------- *)

let three_results () =
  let p1 =
    profile "R1"
      [ (f ~e:"m" ~a:"title" ~v:"A", 1); (f ~e:"m" ~a:"year" ~v:"1999", 1) ]
  in
  let p2 =
    profile "R2"
      [ (f ~e:"m" ~a:"title" ~v:"B", 1); (f ~e:"m" ~a:"year" ~v:"1999", 1) ]
  in
  let p3 =
    profile "R3"
      [ (f ~e:"m" ~a:"title" ~v:"C", 1); (f ~e:"m" ~a:"year" ~v:"2005", 1) ]
  in
  (p1, p2, p3)

let test_total_is_sum_of_pairs () =
  let p1, p2, p3 = three_results () in
  let c = Dod.make_context [| p1; p2; p3 |] in
  let dfss = [| full p1; full p2; full p3 |] in
  let pairwise =
    Dod.dod_pair c ~i:0 ~j:1 dfss.(0) dfss.(1)
    + Dod.dod_pair c ~i:0 ~j:2 dfss.(0) dfss.(2)
    + Dod.dod_pair c ~i:1 ~j:2 dfss.(1) dfss.(2)
  in
  check Alcotest.int "total = sum of pairs" pairwise (Dod.total c dfss);
  (* titles differ on all 3 pairs; years differ on pairs (1,3) and (2,3) *)
  check Alcotest.int "expected value" 5 (Dod.total c dfss)

let test_dod_pair_symmetric () =
  let p1, p2, _ = three_results () in
  let c = Dod.make_context [| p1; p2 |] in
  let d1 = full p1 and d2 = full p2 in
  check Alcotest.int "symmetric"
    (Dod.dod_pair c ~i:0 ~j:1 d1 d2)
    (Dod.dod_pair c ~i:1 ~j:0 d2 d1)

let test_upper_bound () =
  let p1, p2, p3 = three_results () in
  let c = Dod.make_context [| p1; p2; p3 |] in
  check Alcotest.int "pair 0-1: only title can differ" 1
    (Dod.upper_bound_pair c ~i:0 ~j:1);
  check Alcotest.int "pair 0-2: both types" 2 (Dod.upper_bound_pair c ~i:0 ~j:2)

(* The bound is the total WEIGHT of the differentiable types, not their
   count, and it dominates the weighted dod_pair of any DFS pair. *)
let test_upper_bound_weighted () =
  let p1, p2, p3 = three_results () in
  let weight ft = if ft.Feature.attribute = "title" then 3 else 2 in
  let c = Dod.make_context ~weight [| p1; p2; p3 |] in
  check Alcotest.int "pair 0-1: only title can differ" 3
    (Dod.upper_bound_pair c ~i:0 ~j:1);
  check Alcotest.int "pair 0-2: title + year" 5
    (Dod.upper_bound_pair c ~i:0 ~j:2);
  let dfss = [| full p1; full p2; full p3 |] in
  for i = 0 to 1 do
    for j = i + 1 to 2 do
      let pair = Dod.dod_pair c ~i ~j dfss.(i) dfss.(j) in
      let bound = Dod.upper_bound_pair c ~i ~j in
      if pair > bound then
        Alcotest.failf "pair %d-%d: dod %d exceeds bound %d" i j pair bound
    done
  done

(* ---- Links and thresholds -------------------------------------------------- *)

let test_links_and_threshold_q () =
  let p1 =
    profile "A"
      [
        (f ~e:"m" ~a:"genre" ~v:"Action", 1);
        (f ~e:"m" ~a:"genre" ~v:"Drama", 1);
      ]
  in
  let p2 = profile "B" [ (f ~e:"m" ~a:"genre" ~v:"Action", 1) ] in
  let c = Dod.make_context [| p1; p2 |] in
  let gi1 = find p1 ~e:"m" ~a:"genre" in
  (match Dod.links c ~i:0 ~gi:gi1 with
  | [ link ] ->
    check Alcotest.int "other" 1 link.Dod.other;
    (* A's features: Action (equal, no gap), Drama (gap) -> first gap at 2.
       B's only feature Action has no gap -> infinity. *)
    check Alcotest.int "gap_self" 2 link.Dod.gap_self;
    check Alcotest.bool "gap_other infinite" true
      (link.Dod.gap_other = Dod.infinity_gap);
    (* If B selects genre (q_other=1), A needs q >= 2. *)
    check Alcotest.int "threshold with other selected" 2
      (Dod.threshold_q link ~q_other:1);
    check Alcotest.bool "impossible when other empty" true
      (Dod.threshold_q link ~q_other:0 = Dod.infinity_gap)
  | l -> Alcotest.failf "expected 1 link, got %d" (List.length l));
  check Alcotest.int "no links for absent pair type" 0
    (List.length (Dod.links c ~i:1 ~gi:(find p2 ~e:"m" ~a:"genre") |> List.filter (fun l -> l.Dod.other = 1)))

(* ---- delta_for_type consistency (property) --------------------------------- *)

let prop_delta_consistent =
  QCheck.Test.make ~name:"delta_for_type = recomputed total difference"
    ~count:200
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 1 6)))
    (fun (seed, _) ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed ~results:3 ~entities:2
          ~types_per_entity:3 ~values_per_type:3 ~max_count:5
      in
      let c = Dod.make_context profiles in
      let dfss = Topk.generate c ~limit:4 in
      (* Try every single-type change on result 0 and check the delta. *)
      let p0 = profiles.(0) in
      let ok = ref true in
      for gi = 0 to Result_profile.num_types p0 - 1 do
        let old_q = Dfs.q dfss.(0) gi in
        let info = Result_profile.type_info p0 gi in
        let max_q = Array.length info.Result_profile.features in
        for new_q = 0 to max_q do
          let delta =
            Dod.delta_for_type c ~dfss ~i:0 ~gi ~old_q ~new_q
          in
          let before = Dod.total c dfss in
          let changed = Array.copy dfss in
          changed.(0) <- Dfs.set_q dfss.(0) gi new_q;
          let after = Dod.total c changed in
          if delta <> after - before then ok := false
        done
      done;
      !ok)

let prop_dod_monotone_in_selection =
  QCheck.Test.make ~name:"adding features never decreases DoD" ~count:200
    QCheck.(make Gen.(int_range 0 1000000))
    (fun seed ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed ~results:2 ~entities:2
          ~types_per_entity:3 ~values_per_type:3 ~max_count:5
      in
      let c = Dod.make_context profiles in
      let small = Topk.generate c ~limit:3 in
      let big =
        Array.map2
          (fun d p -> Topk.fill ~limit:6 (Dfs.of_q_array p (Dfs.to_q_array d)))
          small profiles
      in
      Dod.total c big >= Dod.total c small)

let test_witness_and_explain () =
  let p1 =
    profile "A" ~populations:[ ("r", 11) ]
      [
        (f ~e:"r" ~a:"compact" ~v:"yes", 8);
        (f ~e:"r" ~a:"same" ~v:"x", 5);
      ]
  in
  let p2 =
    profile "B" ~populations:[ ("r", 68) ]
      [
        (f ~e:"r" ~a:"compact" ~v:"yes", 38);
        (f ~e:"r" ~a:"same" ~v:"x", 5);
      ]
  in
  let c = Dod.make_context [| p1; p2 |] in
  let d1 = full p1 and d2 = full p2 in
  let gi = find p1 ~e:"r" ~a:"compact" in
  (match Dod.witness c ~i:0 ~j:1 d1 d2 ~gi with
  | Some w ->
    check Alcotest.string "witness value" "yes" w.Dod.feature.Feature.value;
    check (Alcotest.float 0.001) "measure i" 8.0 w.Dod.measure_i;
    check (Alcotest.float 0.001) "measure j" 38.0 w.Dod.measure_j
  | None -> Alcotest.fail "compact should differentiate");
  let gi_same = find p1 ~e:"r" ~a:"same" in
  check Alcotest.bool "equal type has no witness" true
    (Dod.witness c ~i:0 ~j:1 d1 d2 ~gi:gi_same = None);
  (* explain_pair lists exactly the differentiating types. *)
  let explained = Dod.explain_pair c ~i:0 ~j:1 d1 d2 in
  check Alcotest.int "one explanation" 1 (List.length explained);
  (* rendered form *)
  let text = Render_text.explanations c [| d1; d2 |] in
  check Alcotest.bool "mentions pair and measures" true
    (Xsact_util.Textutil.contains_substring text "A vs B on r.compact")
  ;
  check Alcotest.bool "mentions 8 vs 38" true
    (Xsact_util.Textutil.contains_substring text "8 vs 38");
  (* under the rate measure the witness reports rates *)
  let crate =
    Dod.make_context ~params:{ Dod.threshold_pct = 10.0; measure = Dod.Rate }
      [| p1; p2 |]
  in
  match Dod.witness crate ~i:0 ~j:1 d1 d2 ~gi with
  | Some w ->
    check (Alcotest.float 0.001) "rate i" (8.0 /. 11.0) w.Dod.measure_i;
    check (Alcotest.float 0.001) "rate j" (38.0 /. 68.0) w.Dod.measure_j
  | None -> Alcotest.fail "rate measure also differentiates"

(* Under uniform weights, the explanation list has exactly DoD(D_i,D_j)
   entries, and every witness's measures actually clear the threshold. *)
let prop_explanations_consistent =
  QCheck.Test.make ~name:"explain_pair count = dod_pair; witnesses gap"
    ~count:150
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 6)))
    (fun (seed, limit) ->
      let profiles =
        Xsact_workload.Workload.synthetic_profiles ~seed ~results:2 ~entities:2
          ~types_per_entity:3 ~values_per_type:3 ~max_count:6
      in
      let c = Dod.make_context profiles in
      let dfss = Multi_swap.generate c ~limit in
      let explained = Dod.explain_pair c ~i:0 ~j:1 dfss.(0) dfss.(1) in
      List.length explained = Dod.dod_pair c ~i:0 ~j:1 dfss.(0) dfss.(1)
      && List.for_all
           (fun (_, (w : Dod.witness)) ->
             let diff = Float.abs (w.Dod.measure_i -. w.Dod.measure_j) in
             diff > 0.1 *. Float.min w.Dod.measure_i w.Dod.measure_j
             && diff > 0.0)
           explained)

let test_context_arity_errors () =
  let p1 = profile "A" [ (f ~e:"m" ~a:"t" ~v:"x", 1) ] in
  Alcotest.check_raises "needs two results"
    (Invalid_argument "Dod.make_context: need at least two results") (fun () ->
      ignore (Dod.make_context [| p1 |]));
  let p2 = profile "B" [ (f ~e:"m" ~a:"t" ~v:"y", 1) ] in
  let c = Dod.make_context [| p1; p2 |] in
  Alcotest.check_raises "total arity"
    (Invalid_argument "Dod.total: arity mismatch") (fun () ->
      ignore (Dod.total c [| full p1 |]))


(* ---- The string-keyed reference ------------------------------------------ *)

(* The pair build as it was before profiles carried ids: a feature map
   and a type map per result, every lookup a string comparison. Kept
   here as the oracle the id-probing build must reproduce entry for
   entry, in the same order. *)
module Fmap = Map.Make (struct
  type t = Feature.t

  let compare = Feature.compare
end)

module Tmap = Map.Make (struct
  type t = Feature.ftype

  let compare = Feature.compare_ftype
end)

let ref_measure params (p : Result_profile.t) (f : Feature.t) count =
  match params.Dod.measure with
  | Dod.Raw -> float_of_int count
  | Dod.Rate ->
    float_of_int count
    /. float_of_int (Result_profile.population p f.ftype.entity)

let ref_gap params a b =
  let diff = Float.abs (a -. b) in
  diff > params.Dod.threshold_pct /. 100.0 *. Float.min a b && diff > 0.0

let ref_first_gap params self_p (self_t : Result_profile.type_info) other_p
    other_counts =
  let n = Array.length self_t.features in
  let rec scan k =
    if k >= n then Dod.infinity_gap
    else
      let fi = self_t.features.(k) in
      let other =
        Option.value ~default:0 (Fmap.find_opt fi.feature other_counts)
      in
      if
        ref_gap params
          (ref_measure params self_p fi.feature fi.count)
          (ref_measure params other_p fi.feature other)
      then k + 1
      else scan (k + 1)
  in
  scan 0

let ref_counts (p : Result_profile.t) =
  Seq.fold_left
    (fun acc (_, (ti : Result_profile.type_info)) ->
      Array.fold_left
        (fun acc (fi : Result_profile.feat_info) -> Fmap.add fi.feature fi.count acc)
        acc ti.features)
    Fmap.empty (Result_profile.types_seq p)

let ref_types (p : Result_profile.t) =
  Seq.fold_left
    (fun acc (gi, (ti : Result_profile.type_info)) -> Tmap.add ti.ftype gi acc)
    Tmap.empty (Result_profile.types_seq p)

(* Shared types of (i, j) in result i's type-map order, packed as the
   context's entry words: (gi_i lsl 20) lor gi_j, (gap_i lsl 31) lor
   gap_j. *)
let ref_compute_pair params (results : Result_profile.t array) i j =
  let counts = Array.map ref_counts results and types = Array.map ref_types results in
  Tmap.fold
    (fun ftype gi_i acc ->
      match Tmap.find_opt ftype types.(j) with
      | None -> acc
      | Some gi_j ->
        let gap_i =
          ref_first_gap params results.(i)
            (Result_profile.type_info results.(i) gi_i)
            results.(j) counts.(j)
        and gap_j =
          ref_first_gap params results.(j)
            (Result_profile.type_info results.(j) gi_j)
            results.(i) counts.(i)
        in
        ((gap_i lsl 31) lor gap_j) :: ((gi_i lsl 20) lor gi_j) :: acc)
    types.(i) []
  |> List.rev

(* [serialize_context] of a fresh context, from the reference pairs: the
   version, the params, ids 0..n-1, next id n, then every pair (i, j),
   i < j, in row-major order with its entries. *)
let ref_serialized params results =
  let buf = Buffer.create 1024 in
  let add v = Buffer.add_int64_le buf (Int64.of_int v) in
  let n = Array.length results in
  add 1;
  Buffer.add_int64_le buf (Int64.bits_of_float params.Dod.threshold_pct);
  add (match params.Dod.measure with Dod.Raw -> 0 | Dod.Rate -> 1);
  add n;
  for i = 0 to n - 1 do
    add i
  done;
  add n;
  add (n * (n - 1) / 2);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e = ref_compute_pair params results i j in
      add i;
      add j;
      add (List.length e);
      List.iter add e
    done
  done;
  Buffer.contents buf

let reference_params =
  List.concat_map
    (fun measure ->
      List.map (fun threshold_pct -> { Dod.threshold_pct; measure }) [ 0.0; 10.0; 1e6 ])
    [ Dod.Raw; Dod.Rate ]

let matches_reference results =
  List.for_all
    (fun params ->
      Dod.serialize_context (Dod.make_context ~params results)
      = ref_serialized params results)
    reference_params

(* Random bags over a small alphabet, so types and values collide across
   results; some entities have no stated population. *)
let gen_bags =
  let open QCheck.Gen in
  let feature =
    map3
      (fun e a v -> f ~e ~a ~v)
      (oneofl [ "e0"; "e1"; "e2" ])
      (oneofl [ "a"; "b"; "c"; "d" ])
      (oneofl [ "w"; "x"; "y"; "z" ])
  in
  let bag =
    map2
      (fun feats pops -> (feats, pops))
      (list_size (int_range 1 12) (pair feature (int_range 1 20)))
      (list_size (int_range 0 2)
         (pair (oneofl [ "e0"; "e1"; "e2" ]) (int_range 1 30)))
  in
  list_size (int_range 2 6) bag

let prop_pairs_match_reference =
  QCheck.Test.make ~name:"id pair build = string-map reference (random bags)"
    ~count:300 (QCheck.make gen_bags) (fun bags ->
      matches_reference
        (Array.of_list
           (List.mapi
              (fun k (feats, pops) ->
                let pops =
                  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) pops
                in
                profile (string_of_int k) ~populations:pops feats)
              bags)))

let prop_synthetic_match_reference =
  QCheck.Test.make ~name:"id pair build = string-map reference (synthetic)"
    ~count:60
    QCheck.(make Gen.(pair (int_range 0 1000000) (int_range 2 10)))
    (fun (seed, results) ->
      matches_reference
        (Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:3
           ~types_per_entity:4 ~values_per_type:5 ~max_count:6))

(* Profiles the corpus scan extracted, for every demo query. *)
let test_scanned_match_reference () =
  List.iter
    (fun (ds : Xsact_dataset.Dataset.t) ->
      let pipeline = Pipeline.create ds.document in
      List.iter
        (fun (_, keywords) ->
          let results =
            Pipeline.search pipeline keywords
            |> List.filteri (fun i _ -> i < 6)
            |> List.map (Pipeline.profile_of pipeline)
            |> Array.of_list
          in
          if Array.length results >= 2 && not (matches_reference results) then
            Alcotest.failf "%s %S: pair tables differ from the reference"
              ds.name keywords)
        ds.queries)
    Xsact_dataset.Dataset.[ product_reviews (); outdoor_retailer (); imdb () ]

(* ---- Serialized contexts ------------------------------------------------ *)

(* One MD5 over [serialize_context] of fresh contexts across a fixed
   sweep: every demo query of the three corpora (the first six results,
   extracted by the pipeline, with and without a coarser [lift_to]) and
   seeded synthetic profiles, each under Raw and Rate at thresholds 0, 10
   and 1e6. The blob is the pair tables in their canonical order, so any
   change to extraction, the pair build or the entry order moves it. *)
let serialized_sweep_digest = "b5b2944fa405c77443bbf1807ad3dd31"

let test_serialized_sweep_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let params_sweep =
    List.concat_map
      (fun measure ->
        List.map
          (fun threshold_pct -> { Dod.threshold_pct; measure })
          [ 0.0; 10.0; 1e6 ])
      [ Dod.Raw; Dod.Rate ]
  in
  let add profiles =
    if Array.length profiles >= 2 then
      List.iter
        (fun params ->
          Buffer.add_string buf
            (Dod.serialize_context (Dod.make_context ~params profiles)))
        params_sweep
  in
  List.iter
    (fun (ds : Xsact_dataset.Dataset.t) ->
      let pipeline = Pipeline.create ds.document in
      List.iter
        (fun (_, keywords) ->
          List.iter
            (fun lift_to ->
              Pipeline.search ?lift_to pipeline keywords
              |> List.filteri (fun i _ -> i < 6)
              |> List.map (Pipeline.profile_of ~keywords pipeline)
              |> Array.of_list |> add)
            [ None; Some "brand"; Some "movie" ])
        ds.queries)
    Xsact_dataset.Dataset.
      [ product_reviews (); outdoor_retailer (); imdb () ];
  List.iter
    (fun results ->
      add
        (Xsact_workload.Workload.synthetic_profiles ~seed:(77 + results)
           ~results ~entities:3 ~types_per_entity:5 ~values_per_type:6
           ~max_count:9))
    [ 2; 3; 5; 8; 12 ];
  check Alcotest.string "serialize_context digest" serialized_sweep_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "xsact_dod"
    [
      ( "differentiability",
        [
          Alcotest.test_case "equal counts" `Quick
            test_equal_counts_not_differentiable;
          Alcotest.test_case "different values" `Quick
            test_different_values_differentiable;
          Alcotest.test_case "unshared types" `Quick
            test_unshared_type_not_comparable;
          Alcotest.test_case "10% threshold edge" `Quick test_threshold_edge;
          Alcotest.test_case "x = 0" `Quick test_threshold_zero_pct;
          Alcotest.test_case "rate vs raw" `Quick test_rate_vs_raw;
          Alcotest.test_case "both sides must select" `Quick
            test_requires_both_selected;
          Alcotest.test_case "other-side witness" `Quick test_gap_via_other_side;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "total = sum of pairs" `Quick
            test_total_is_sum_of_pairs;
          Alcotest.test_case "pair symmetry" `Quick test_dod_pair_symmetric;
          Alcotest.test_case "upper bound" `Quick test_upper_bound;
          Alcotest.test_case "upper bound (weighted)" `Quick
            test_upper_bound_weighted;
          Alcotest.test_case "arity errors" `Quick test_context_arity_errors;
        ] );
      ( "links",
        [
          Alcotest.test_case "links and threshold_q" `Quick
            test_links_and_threshold_q;
          Alcotest.test_case "witness and explain" `Quick
            test_witness_and_explain;
        ] );
      ( "properties",
        [
          qtest prop_delta_consistent;
          qtest prop_dod_monotone_in_selection;
          qtest prop_explanations_consistent;
        ] );
      ( "reference",
        [
          qtest prop_pairs_match_reference;
          qtest prop_synthetic_match_reference;
          Alcotest.test_case "scanned demo results" `Quick
            test_scanned_match_reference;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "serialized context digest" `Quick
            test_serialized_sweep_digest;
        ] );
    ]
