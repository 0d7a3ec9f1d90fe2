(* The incremental comparison engine: the Dod delta ([Dod.rearrange]),
   the op batches Session.apply interprets for it, and the serve layer's
   warm-context machinery.

   The contract under test everywhere is *bit-identity*: a context
   maintained by deltas, and the DFSs regenerated from it, must equal a
   fresh batch rebuild — and a server running incremental must produce
   byte-identical response bodies to an ablation server running with
   full rebuilds (--no-incremental). *)

module Http = Xsact_server.Http
module Json = Xsact_server.Json
module Server = Xsact_server.Server
module Durability = Xsact_server.Durability

open Xsact_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let synthetic seed results =
  Xsact_workload.Workload.synthetic_profiles ~seed ~results ~entities:3
    ~types_per_entity:5 ~values_per_type:4 ~max_count:8

let ctx : Dod.context Alcotest.testable =
  Alcotest.testable
    (fun ppf _ -> Format.pp_print_string ppf "<context>")
    Dod.equal_context

let drop idx a =
  Array.of_list (List.filteri (fun i _ -> i <> idx) (Array.to_list a))

(* ---- Dod.rearrange ------------------------------------------------------ *)

let all c = List.init (Dod.num_results c) Fun.id
let add c p = Dod.rearrange c ~keep:(all c) ~add:[ p ]
let remove c i = Dod.rearrange c ~keep:(List.filter (( <> ) i) (all c)) ~add:[]

let reparams ?params ?weight ?deadline c =
  Dod.rearrange ?deadline ?params ?weight c ~keep:(all c) ~add:[]

let test_add_equals_fresh () =
  let profiles = synthetic 3 7 in
  let base = Array.sub profiles 0 6 in
  let c = Dod.make_context base in
  let c' = add c profiles.(6) in
  check ctx "add = fresh rebuild" (Dod.make_context profiles) c';
  check Alcotest.int "pair tables after add" (7 * 6 / 2)
    (Dod.num_pair_tables c');
  (* functional delta: the input context is untouched *)
  check ctx "input context intact" (Dod.make_context base) c;
  check Alcotest.int "input pair tables" (6 * 5 / 2) (Dod.num_pair_tables c)

let test_remove_equals_fresh () =
  let profiles = synthetic 5 6 in
  let c = Dod.make_context profiles in
  List.iter
    (fun idx ->
      check ctx
        (Printf.sprintf "remove %d = fresh rebuild" idx)
        (Dod.make_context (drop idx profiles))
        (remove c idx))
    [ 0; 3; 5 ];
  check ctx "input context intact" (Dod.make_context profiles) c

let test_add_remove_roundtrip () =
  let profiles = synthetic 17 5 in
  let extra = (synthetic 18 3).(2) in
  let c = Dod.make_context profiles in
  let roundtrip = remove (add c extra) 5 in
  check ctx "add then remove = original" c roundtrip

let test_reparams_equals_fresh () =
  let profiles = synthetic 9 5 in
  let c = Dod.make_context profiles in
  let params = { Dod.threshold_pct = 25.0; measure = Dod.Rate } in
  check ctx "params change = fresh"
    (Dod.make_context ~params profiles)
    (reparams ~params c);
  let weight _ = 3 in
  check ctx "weight change = fresh"
    (Dod.make_context ~weight profiles)
    (reparams ~weight c);
  check ctx "both = fresh"
    (Dod.make_context ~params ~weight profiles)
    (reparams ~params ~weight c);
  check ctx "input context intact" (Dod.make_context profiles) c

(* Survivors, newcomers and a params change in one call: the fresh build
   over the final arrangement, and the same as taking the steps one at a
   time. *)
let test_keep_add_equals_fresh () =
  let profiles = synthetic 31 8 in
  let base = Array.sub profiles 0 5 in
  let c = Dod.make_context base in
  let params = { Dod.threshold_pct = 25.0; measure = Dod.Rate } in
  let keep = [ 0; 2; 3; 4 ] and fresh = [ profiles.(5); profiles.(6) ] in
  let final = Array.of_list (List.map (fun i -> base.(i)) keep @ fresh) in
  let once = Dod.rearrange ~params c ~keep ~add:fresh in
  check ctx "keep + add + params = fresh over the final arrangement"
    (Dod.make_context ~params final) once;
  let stepwise =
    let c = Dod.rearrange c ~keep ~add:[] in
    let c = Dod.rearrange c ~keep:(all c) ~add:fresh in
    reparams ~params c
  in
  check ctx "one call = the steps in sequence" stepwise once;
  check ctx "every result new = fresh"
    (Dod.make_context (Array.of_list fresh))
    (Dod.rearrange c ~keep:[] ~add:fresh);
  if not (Dod.rearrange c ~keep:(all c) ~add:[] == c) then
    Alcotest.fail "same arrangement copied";
  check ctx "input context intact" (Dod.make_context base) c

let test_delta_errors () =
  let profiles = synthetic 2 4 in
  let c = Dod.make_context profiles in
  let bad_keep =
    Invalid_argument "Dod.rearrange: keep is not strictly increasing in range"
  in
  let too_few = Invalid_argument "Dod.rearrange: need at least two results" in
  List.iter
    (fun (what, keep) ->
      Alcotest.check_raises what bad_keep (fun () ->
          ignore (Dod.rearrange c ~keep ~add:[])))
    [
      ("keep out of range", [ 0; 1; 4 ]);
      ("negative keep", [ -1; 0; 1 ]);
      ("keep decreasing", [ 1; 0; 2 ]);
      ("keep repeated", [ 0; 0; 1 ]);
    ];
  Alcotest.check_raises "one survivor" too_few (fun () ->
      ignore (Dod.rearrange c ~keep:[ 3 ] ~add:[]));
  Alcotest.check_raises "one newcomer" too_few (fun () ->
      ignore (Dod.rearrange c ~keep:[] ~add:[ profiles.(0) ]));
  check ctx "context intact after failures" (Dod.make_context profiles) c

let test_deadline_mid_delta () =
  let profiles = synthetic 7 6 in
  let base = Array.sub profiles 0 5 in
  let c = Dod.make_context base in
  let expired = Deadline.of_ms 0. in
  Alcotest.check_raises "expired add raises" Deadline.Expired (fun () ->
      ignore
        (Dod.rearrange ~deadline:expired c ~keep:(all c) ~add:[ profiles.(5) ]));
  Alcotest.check_raises "expired remove raises" Deadline.Expired (fun () ->
      ignore (Dod.rearrange ~deadline:expired c ~keep:[ 0; 1 ] ~add:[]));
  Alcotest.check_raises "expired reparams raises" Deadline.Expired (fun () ->
      ignore
        (reparams ~deadline:expired
           ~params:{ Dod.threshold_pct = 50.0; measure = Dod.Raw }
           c));
  (* the failed deltas left the input context fully intact *)
  check ctx "context intact after expiry" (Dod.make_context base) c

let test_approx_bytes_sane () =
  let small = Dod.make_context (synthetic 4 3) in
  let large = Dod.make_context (synthetic 4 12) in
  if Dod.approx_bytes small <= 0 then Alcotest.fail "non-positive footprint";
  if Dod.approx_bytes large <= Dod.approx_bytes small then
    Alcotest.fail "footprint does not grow with the result set"

(* Pin the accounting. The golden value is over a deterministic
   synthetic context; a change here means the accounting changed and
   --max-context-mb moved — review it, then update the value. *)
let test_approx_bytes_accounting () =
  if Sys.word_size = 64 then begin
    let c = Dod.make_context (synthetic 4 6) in
    check Alcotest.int "64-bit golden footprint (flat)" 7976
      (Dod.approx_bytes c);
    (* delta maintenance must account like a fresh build: bit-identical
       contexts have identical footprints *)
    let profiles = synthetic 4 7 in
    let grown = add c profiles.(6) in
    check Alcotest.int "delta footprint = fresh footprint"
      (Dod.approx_bytes (Dod.make_context profiles))
      (Dod.approx_bytes grown);
    let shrunk = remove (Dod.make_context profiles) 6 in
    check Alcotest.int "remove footprint = fresh footprint"
      (Dod.approx_bytes c) (Dod.approx_bytes shrunk)
  end

(* ---- Session threading -------------------------------------------------- *)

let session_of config profiles ~size_bound =
  match Session.create ~config ~size_bound profiles with
  | Ok s -> s
  | Error e -> Alcotest.fail (Error.to_string e)

let shrink s bound =
  match Session.apply s [ Session.Set_size_bound bound ] with
  | Ok s -> s
  | Error e -> Alcotest.fail (Error.to_string e)

let qs s = Array.map Dfs.to_q_array (Session.dfss s)

(* Regression: shrinking the bound warm-starts from the truncated DFS
   prefix and must be deterministic — two identical shrinks agree, every
   truncated DFS is valid at the new bound, and the result matches the
   non-incremental cold rebuild byte for byte. *)
let test_shrink_deterministic () =
  let profiles = Array.to_list (synthetic 11 5) in
  let warm = session_of Config.default profiles ~size_bound:10 in
  let a = shrink warm 4 and b = shrink warm 4 in
  if qs a <> qs b then Alcotest.fail "identical shrinks diverge";
  Array.iter
    (fun d ->
      if not (Dfs.is_valid ~limit:4 d) then
        Alcotest.fail "shrunk DFS exceeds the bound or breaks closure")
    (Session.dfss a);
  let cold =
    shrink
      (session_of
         (Config.with_incremental false Config.default)
         profiles ~size_bound:10)
      4
  in
  if qs a <> qs cold then Alcotest.fail "warm shrink differs from cold run";
  check Alcotest.int "dod matches cold run" (Session.dod cold) (Session.dod a);
  check ctx "context reused verbatim = cold rebuild" (Session.context cold)
    (Session.context a);
  (* growing back keeps everything valid too *)
  let regrown = shrink a 10 in
  Array.iter
    (fun d ->
      if not (Dfs.is_valid ~limit:10 d) then Alcotest.fail "regrow invalid")
    (Session.dfss regrown)

let test_session_deadline_intact () =
  let profiles = Array.to_list (synthetic 13 4) in
  let extra = (synthetic 14 3).(1) in
  let s = session_of Config.default profiles ~size_bound:6 in
  let expired = Deadline.of_ms 0. in
  let expire op = ignore (Session.apply ~deadline:expired s [ op ]) in
  Alcotest.check_raises "expired add raises" Deadline.Expired (fun () ->
      expire (Session.Add extra));
  Alcotest.check_raises "expired remove raises" Deadline.Expired (fun () ->
      expire (Session.Remove 0));
  Alcotest.check_raises "expired resize raises" Deadline.Expired (fun () ->
      expire (Session.Set_size_bound 3));
  (* the session survives: its context still equals a fresh build and the
     same mutations succeed without a deadline *)
  let cfg = Session.config s in
  check ctx "context intact"
    (Dod.make_context ~params:cfg.Config.params ~weight:cfg.Config.weight
       (Session.profiles s))
    (Session.context s);
  let s' = Result.get_ok (Session.apply s [ Session.Add extra ]) in
  check Alcotest.int "undeadlined add lands" 5
    (Array.length (Session.profiles s'))

let apply_ok s ops =
  match Session.apply s ops with
  | Ok s -> s
  | Error e -> Alcotest.fail (Error.to_string e)

let session_context_is what expected s =
  let cfg = Session.config s in
  check ctx what
    (Dod.make_context ~params:cfg.Config.params ~weight:cfg.Config.weight
       expected)
    (Session.context s)

(* Sequential index semantics, one context pass: two adds, one remove of
   an original and an interleaved params change that loses to the final
   one land on the fresh build over the final arrangement under the
   final params, and on the same context as the ops one at a time. *)
let test_apply_batch_equals_fresh () =
  let profiles = synthetic 31 8 in
  let base = Array.to_list (Array.sub profiles 0 5) in
  let s = session_of Config.default base ~size_bound:6 in
  let p1 = { Dod.threshold_pct = 50.0; measure = Dod.Raw } in
  let p2 = { Dod.threshold_pct = 25.0; measure = Dod.Rate } in
  let ops =
    [
      Session.Reparams { params = Some p1; weight = None };
      Session.Add profiles.(5);
      Session.Remove 1;
      Session.Add profiles.(6);
      Session.Reparams { params = Some p2; weight = None };
    ]
  in
  let final =
    Array.of_list
      (List.filteri (fun i _ -> i <> 1) (base @ [ profiles.(5) ])
      @ [ profiles.(6) ])
  in
  let batched = apply_ok s ops in
  check ctx "batch = fresh over final arrangement"
    (Dod.make_context ~params:p2 final)
    (Session.context batched);
  session_context_is "input session intact" (Array.of_list base) s;
  let folded = List.fold_left (fun s op -> apply_ok s [ op ]) s ops in
  check ctx "batch = sequential fold" (Session.context folded)
    (Session.context batched)

let test_apply_cancelling_pairs () =
  let profiles = synthetic 33 6 in
  let base = Array.to_list (Array.sub profiles 0 4) in
  let s = session_of Config.default base ~size_bound:6 in
  (* an add immediately re-removed never costs a pair computation or a
     regeneration: the batch returns the input session itself *)
  if not (apply_ok s [ Session.Add profiles.(4); Session.Remove 4 ] == s) then
    Alcotest.fail "cancelling pair did work";
  (* same with a second op riding along *)
  session_context_is "cancelling pair + survivor = fresh"
    (Array.of_list (base @ [ profiles.(5) ]))
    (apply_ok s
       [ Session.Add profiles.(4); Session.Remove 4; Session.Add profiles.(5) ]);
  (* the empty batch is the session itself, physically *)
  if not (apply_ok s [] == s) then Alcotest.fail "empty batch copied"

let test_apply_errors () =
  let profiles = synthetic 34 4 in
  let s = session_of Config.default (Array.to_list profiles) ~size_bound:6 in
  let expect what err ops =
    match Session.apply s ops with
    | Error e ->
      check Alcotest.string what (Error.to_string err) (Error.to_string e)
    | Ok _ -> Alcotest.failf "%s: batch landed" what
  in
  (* each op is checked against the arrangement the ops before it left *)
  expect "batch remove out of range"
    (Error.Index_out_of_range { index = 9; length = 5 })
    [ Session.Add profiles.(0); Session.Remove 9 ];
  expect "batch remove below two" (Error.Too_few_selected 1)
    [ Session.Remove 0; Session.Remove 0; Session.Remove 0 ];
  expect "singleton remove out of range"
    (Error.Index_out_of_range { index = 9; length = 4 })
    [ Session.Remove 9 ];
  Alcotest.check_raises "expired batch raises" Deadline.Expired (fun () ->
      ignore
        (Session.apply ~deadline:(Deadline.of_ms 0.) s
           [ Session.Add profiles.(0); Session.Remove 0 ]));
  session_context_is "session intact after failures" profiles s

(* ---- Random mutation sequences (property) ------------------------------- *)

type op = Add | Remove of int | Resize of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Add);
        (2, map (fun i -> Remove i) (int_range 0 31));
        (2, map (fun k -> Resize k) (int_range 3 12));
      ])

let show_op = function
  | Add -> "add"
  | Remove i -> Printf.sprintf "remove %d" i
  | Resize k -> Printf.sprintf "resize %d" k

let show_case (seed, alg, ops) =
  Printf.sprintf "seed=%d alg=%d [%s]" seed alg
    (String.concat "; " (List.map show_op ops))

let algorithms = [| Algorithm.Single_swap; Algorithm.Multi_swap;
                    Algorithm.Greedy |]

(* The arrangement a session should hold, kept by the test itself: an
   oracle that does not go through Session's own simulation. *)
let holds model s =
  let got = Array.to_list (Session.profiles s) in
  List.length got = List.length model && List.for_all2 ( == ) got model

(* After every step of a random mutation sequence, the delta-maintained
   session must agree with (a) a fresh batch make_context over its
   current profiles and (b) a mirror session running the identical ops
   with incremental = false — context, DFSs and DoD all bit-identical.
   Expired deadlines are injected along the way; they must raise and
   leave both replicas untouched. *)
let prop_mutations_bit_identical =
  QCheck.Test.make
    ~name:"random mutation sequences: delta = fresh rebuild at every step"
    ~count:30
    QCheck.(
      make
        ~print:show_case
        Gen.(
          triple (int_range 0 1_000_000)
            (int_range 0 (Array.length algorithms - 1))
            (list_size (int_range 1 10) op_gen)))
    (fun (seed, alg_i, ops) ->
      let pool = synthetic seed 16 in
      let initial = Array.to_list (Array.sub pool 0 4) in
      let next = ref 4 in
      let config = Config.with_algorithm algorithms.(alg_i) Config.default in
      let s = ref (session_of config initial ~size_bound:6) in
      let m =
        ref
          (session_of (Config.with_incremental false config) initial
             ~size_bound:6)
      in
      let model = ref initial in
      let agree step =
        let s = !s and m = !m in
        if not (holds !model s && holds !model m) then
          QCheck.Test.fail_reportf "step %d: arrangement <> model" step;
        let cfg = Session.config s in
        let fresh =
          Dod.make_context ~params:cfg.Config.params
            ~weight:cfg.Config.weight (Session.profiles s)
        in
        if not (Dod.equal_context fresh (Session.context s)) then
          QCheck.Test.fail_reportf "step %d: context <> fresh rebuild" step;
        if Dod.approx_bytes (Session.context s) <> Dod.approx_bytes fresh then
          QCheck.Test.fail_reportf "step %d: footprint <> fresh rebuild" step;
        if not (Dod.equal_context (Session.context m) (Session.context s))
        then
          QCheck.Test.fail_reportf "step %d: context <> ablation mirror" step;
        if qs s <> qs m then
          QCheck.Test.fail_reportf "step %d: DFSs diverge from mirror" step;
        if Session.dod s <> Session.dod m then
          QCheck.Test.fail_reportf "step %d: DoD diverges from mirror" step
      in
      let step_both step what op =
        match (Session.apply !s [ op ], Session.apply !m [ op ]) with
        | Ok a, Ok b ->
          s := a;
          m := b
        | (Error e, _ | _, Error e) ->
          QCheck.Test.fail_reportf "step %d: %s: %s" step what
            (Error.to_string e)
      in
      agree 0;
      List.iteri
        (fun step op ->
          let step = step + 1 in
          (match op with
          | Add when !next < Array.length pool ->
            let p = pool.(!next) in
            incr next;
            (* mid-sequence expiry: must raise, not corrupt *)
            (try
               ignore
                 (Session.apply ~deadline:(Deadline.of_ms 0.) !s
                    [ Session.Add p ]);
               QCheck.Test.fail_reportf "step %d: expired add did not raise"
                 step
             with Deadline.Expired -> ());
            step_both step "add" (Session.Add p);
            model := !model @ [ p ]
          | Add -> () (* pool exhausted *)
          | Remove i ->
            let n = Array.length (Session.profiles !s) in
            if n > 2 then begin
              step_both step "remove" (Session.Remove (i mod n));
              model := List.filteri (fun j _ -> j <> i mod n) !model
            end
          | Resize k -> step_both step "resize" (Session.Set_size_bound k));
          agree step)
        ops;
      true)

(* ---- Random op batches through Session.apply (property) ----------------- *)

type bop = BAdd | BRemove of int | BResize of int | BReparams of int | BCancel

let bop_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return BAdd);
        (2, map (fun i -> BRemove i) (int_range 0 31));
        (2, map (fun k -> BResize k) (int_range 3 12));
        (2, map (fun t -> BReparams t) (int_range 0 2));
        (1, return BCancel);
      ])

let show_bop = function
  | BAdd -> "add"
  | BRemove i -> Printf.sprintf "remove %d" i
  | BResize k -> Printf.sprintf "resize %d" k
  | BReparams t -> Printf.sprintf "reparams %d" t
  | BCancel -> "cancel-pair"

let show_batch_case (seed, alg_i, batches) =
  Printf.sprintf "seed=%d alg=%d [%s]" seed alg_i
    (String.concat " | "
       (List.map
          (fun b -> String.concat "; " (List.map show_bop b))
          batches))

(* Random op *batches* — with cancelling add/remove pairs and interleaved
   reparams — through Session.apply: after every batch the coalesced
   context must equal a fresh make_context under the session's (possibly
   re-parametrized) config, and the whole session must stay in lockstep
   with a --no-incremental mirror applying the identical batches. A
   tripped deadline on a non-trivial batch must raise and leave both
   replicas untouched. *)
let prop_batches_bit_identical =
  QCheck.Test.make
    ~name:"random op batches: one coalesced delta = fresh rebuild" ~count:30
    QCheck.(
      make ~print:show_batch_case
        Gen.(
          triple (int_range 0 1_000_000)
            (int_range 0 (Array.length algorithms - 1))
            (list_size (int_range 1 4)
               (list_size (int_range 1 6) bop_gen))))
    (fun (seed, alg_i, batches) ->
      let pool = synthetic seed 24 in
      let next = ref 4 in
      let thresholds = [| 10.0; 25.0; 40.0 |] in
      let config = Config.with_algorithm algorithms.(alg_i) Config.default in
      let initial = Array.to_list (Array.sub pool 0 4) in
      let s = ref (session_of config initial ~size_bound:6) in
      let m =
        ref
          (session_of (Config.with_incremental false config) initial
             ~size_bound:6)
      in
      let model = ref initial in
      let agree step =
        let s = !s and m = !m in
        if not (holds !model s && holds !model m) then
          QCheck.Test.fail_reportf "batch %d: arrangement <> model" step;
        let cfg = Session.config s in
        let fresh =
          Dod.make_context ~params:cfg.Config.params
            ~weight:cfg.Config.weight (Session.profiles s)
        in
        if not (Dod.equal_context fresh (Session.context s)) then
          QCheck.Test.fail_reportf "batch %d: context <> fresh rebuild" step;
        if Dod.approx_bytes (Session.context s) <> Dod.approx_bytes fresh then
          QCheck.Test.fail_reportf "batch %d: footprint <> fresh rebuild" step;
        if not (Dod.equal_context (Session.context m) (Session.context s))
        then
          QCheck.Test.fail_reportf "batch %d: context <> ablation mirror"
            step;
        if qs s <> qs m then
          QCheck.Test.fail_reportf "batch %d: DFSs diverge from mirror" step;
        if Session.dod s <> Session.dod m then
          QCheck.Test.fail_reportf "batch %d: DoD diverges from mirror" step
      in
      agree 0;
      List.iteri
        (fun step batch ->
          let step = step + 1 in
          (* translate to session ops against the running arrangement *)
          let n = ref (Array.length (Session.profiles !s)) in
          let arranged = ref !model in
          let ops =
            List.concat_map
              (fun bop ->
                match bop with
                | BAdd when !next < Array.length pool ->
                  let p = pool.(!next) in
                  incr next;
                  incr n;
                  arranged := !arranged @ [ p ];
                  [ Session.Add p ]
                | BAdd -> []
                | BRemove i when !n > 2 ->
                  let i = i mod !n in
                  decr n;
                  arranged := List.filteri (fun j _ -> j <> i) !arranged;
                  [ Session.Remove i ]
                | BRemove _ -> []
                | BResize k -> [ Session.Set_size_bound k ]
                | BReparams 2 ->
                  [
                    Session.Reparams
                      {
                        params = None;
                        weight =
                          Some
                            (fun ft ->
                              1 + (String.length ft.Feature.attribute land 1));
                      };
                  ]
                | BReparams t ->
                  [
                    Session.Reparams
                      {
                        params =
                          Some
                            {
                              Dod.threshold_pct = thresholds.(t);
                              measure = Dod.Raw;
                            };
                        weight = None;
                      };
                  ]
                | BCancel when !next < Array.length pool ->
                  let p = pool.(!next) in
                  incr next;
                  [ Session.Add p; Session.Remove !n ]
                | BCancel -> [])
              batch
          in
          if ops <> [] then begin
            match (Session.apply !s ops, Session.apply !m ops) with
            | Ok a, Ok b ->
              (* a batch that did real work (the result is a new session,
                 not the net-no-op early return — note an add can still
                 cancel out if a later remove hits the added slot) must,
                 under an expired deadline, raise before any of that work
                 and leave the input session untouched *)
              if a != !s then
                (try
                   ignore (Session.apply ~deadline:(Deadline.of_ms 0.) !s ops);
                   QCheck.Test.fail_reportf
                     "batch %d: expired batch did not raise" step
                 with Deadline.Expired -> ());
              s := a;
              m := b;
              model := !arranged
            | (Error e, _ | _, Error e) ->
              QCheck.Test.fail_reportf "batch %d: apply: %s" step
                (Error.to_string e)
          end;
          agree step)
        batches;
      true)

(* ---- Serve layer -------------------------------------------------------- *)

let request ?(meth = "GET") ?(headers = []) ?(body = "") target =
  let path, query = Http.split_target target in
  { Http.meth; target; path; query; headers; body }

let member_exn name body =
  match Json.of_string body with
  | Ok j -> (
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "no field %S in %s" name body)
  | Error e -> Alcotest.failf "bad response JSON %s: %s" body e

let int_exn name body =
  match member_exn name body with
  | Json.Int i -> i
  | v -> Alcotest.failf "field %S is %s, not an int" name (Json.to_string v)

let compare_body k =
  Printf.sprintf
    {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":%d}|} k

type handler =
  ?meth:string -> ?headers:(string * string) list -> ?body:string -> string ->
  Http.response

let session_server ?incremental ?max_context_bytes ?session_ttl_s
    ?max_sessions ?state_dir () =
  let t =
    Server.create ~datasets:[ "product-reviews" ] ?incremental
      ?max_context_bytes ?session_ttl_s ?max_sessions ?state_dir ()
  in
  let handle ?meth ?headers ?body target =
    Server.handle t (request ?meth ?headers ?body target)
  in
  (t, handle)

let create_session (handle : handler) =
  let created = handle ~meth:"POST" ~body:(compare_body 6) "/session" in
  check Alcotest.int "created" 201 created.Http.status;
  match member_exn "id" created.Http.resp_body with
  | Json.String id -> id
  | _ -> Alcotest.fail "no session id"

(* One add + one remove + two resizes: the incremental server books two
   delta builds and only the creation-time full build; the ablation
   server rebuilds in full on every mutation. *)
let test_server_mutation_accounting () =
  let mutate (handle : handler) id =
    List.iter
      (fun (suffix, body) ->
        check Alcotest.int (suffix ^ " ok") 200
          (handle ~meth:"POST" ~body ("/session/" ^ id ^ "/" ^ suffix))
            .Http.status)
      [
        ("add", {|{"rank":4}|});
        ("remove", {|{"rank":2}|});
        ("size", {|{"size_bound":9}|});
        ("size", {|{"size_bound":5}|});
      ]
  in
  let _, handle = session_server () in
  mutate handle (create_session handle);
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "incremental: one full build (creation)" 1
    (int_exn "context_builds_full" metrics);
  check Alcotest.int "incremental: two delta builds" 2
    (int_exn "context_builds_delta" metrics);
  let live = int_exn "context_pair_tables_live" metrics in
  check Alcotest.int "pair tables live for 3 warm results" 3 live;
  let _, cold_handle = session_server ~incremental:false () in
  mutate cold_handle (create_session cold_handle);
  let cold_metrics = (cold_handle "/metrics").Http.resp_body in
  check Alcotest.int "ablation: every mutation a full build" 5
    (int_exn "context_builds_full" cold_metrics);
  check Alcotest.int "ablation: no delta builds" 0
    (int_exn "context_builds_delta" cold_metrics)

(* Sessions and mutation responses must be byte-identical between the
   incremental server and the --no-incremental ablation. *)
let test_server_ablation_identical () =
  let _, warm = session_server () in
  let _, cold = session_server ~incremental:false () in
  let drive (handle : handler) =
    let id = create_session handle in
    let bodies =
      List.map
        (fun (suffix, body) ->
          (handle ~meth:"POST" ~body ("/session/" ^ id ^ "/" ^ suffix))
            .Http.resp_body)
        [
          ("add", {|{"rank":4}|});
          ("size", {|{"size_bound":9}|});
          ("remove", {|{"rank":1}|});
          ("size", {|{"size_bound":4}|});
        ]
    in
    bodies @ [ (handle ("/session/" ^ id)).Http.resp_body ]
  in
  List.iteri
    (fun i (w, c) ->
      check Alcotest.string (Printf.sprintf "response %d identical" i) c w)
    (List.combine (drive warm) (drive cold))

(* POST /compare reuses one warm context across size bounds: the second
   request is a response-cache miss but a context-cache hit. *)
let test_compare_context_reuse () =
  let _, handle = session_server () in
  let r6 = handle ~meth:"POST" ~body:(compare_body 6) "/compare" in
  let r7 = handle ~meth:"POST" ~body:(compare_body 7) "/compare" in
  check Alcotest.int "first ok" 200 r6.Http.status;
  check Alcotest.int "second ok" 200 r7.Http.status;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "one full build" 1 (int_exn "context_builds_full" metrics);
  check Alcotest.int "one reuse" 1 (int_exn "context_builds_reused" metrics);
  (* the reused-context response is identical to a cold server's, modulo
     the wall-clock elapsed_s field *)
  let timeless body =
    match Json.of_string body with
    | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
    | _ -> Alcotest.failf "bad compare body %s" body
  in
  let _, cold = session_server ~incremental:false () in
  let c6 = cold ~meth:"POST" ~body:(compare_body 6) "/compare" in
  let c7 = cold ~meth:"POST" ~body:(compare_body 7) "/compare" in
  check Alcotest.string "bound 6 identical" (timeless c6.Http.resp_body)
    (timeless r6.Http.resp_body);
  check Alcotest.string "bound 7 identical" (timeless c7.Http.resp_body)
    (timeless r7.Http.resp_body);
  let cold_metrics = (cold "/metrics").Http.resp_body in
  check Alcotest.int "ablation never reuses" 0
    (int_exn "context_builds_reused" cold_metrics)

(* A 1-byte context budget forces demotion of every session but the one
   just touched; a demoted session rewarms transparently on GET with a
   byte-identical body. *)
let test_server_demote_rewarm () =
  let _, handle = session_server ~max_context_bytes:1 () in
  let a = create_session handle in
  let before = (handle ("/session/" ^ a)).Http.resp_body in
  let b = create_session handle in
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "one demoted" 1 (int_exn "contexts_demoted" metrics);
  check Alcotest.int "one cold" 1 (int_exn "sessions_cold" metrics);
  let after = (handle ("/session/" ^ a)).Http.resp_body in
  check Alcotest.string "rewarmed GET byte-identical" before after;
  let metrics = (handle "/metrics").Http.resp_body in
  if int_exn "sessions_rewarmed" metrics < 1 then
    Alcotest.fail "rewarm not counted";
  (* both sessions still mutate fine after bouncing warm/cold *)
  List.iter
    (fun id ->
      check Alcotest.int "post-demotion add ok" 200
        (handle ~meth:"POST" ~body:{|{"rank":4}|}
           ("/session/" ^ id ^ "/add"))
          .Http.status)
    [ a; b ]

(* A mutated session's DFSs are a warm-started fixpoint, which a fresh
   generation over the same recipe need not reach: gps, top 4, created at
   bound 7 and resized to 5 serves DoD 23, where a fresh create at 5
   serves 11 (38 against 24 at 11). A demotion keeps the DFSs, so the GET
   after it equals the GET before it, runs included. *)
let test_server_demote_after_resize () =
  let _, handle = session_server ~max_context_bytes:1 () in
  let session () =
    let created =
      handle ~meth:"POST"
        ~body:{|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":7}|}
        "/session"
    in
    check Alcotest.int "created" 201 created.Http.status;
    match member_exn "id" created.Http.resp_body with
    | Json.String id -> id
    | _ -> Alcotest.fail "no session id"
  in
  List.iter
    (fun (bound, dod) ->
      let label what = Printf.sprintf "%s (bound %d)" what bound in
      let a = session () in
      let resized =
        handle ~meth:"POST"
          ~body:(Printf.sprintf {|{"size_bound":%d}|} bound)
          ("/session/" ^ a ^ "/size")
      in
      check Alcotest.int (label "resize") 200 resized.Http.status;
      let before = (handle ("/session/" ^ a)).Http.resp_body in
      check Alcotest.int (label "warm-started DoD") dod
        (int_exn "dod" before);
      let demoted = int_exn "contexts_demoted" (handle "/metrics").Http.resp_body in
      ignore (session ());
      check Alcotest.int (label "creating another demotes it") (demoted + 1)
        (int_exn "contexts_demoted" (handle "/metrics").Http.resp_body);
      check Alcotest.string (label "GET after demotion = GET before") before
        (handle ("/session/" ^ a)).Http.resp_body)
    [ (5, 23); (11, 38) ]

(* ---- Intern-table lifecycle --------------------------------------------- *)

let intern_stat name metrics =
  match member_exn "context_intern" metrics with
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.failf "context_intern.%s missing in %s" name metrics)
  | v ->
    Alcotest.failf "context_intern is %s, not an object" (Json.to_string v)

(* k sessions over one corpus and parameter set pin one physical context:
   one interned entry, k refs, one full build, and a byte ledger that does
   not grow past the first session's. The ablation server interns
   nothing. *)
let test_server_intern_sharing () =
  let _, handle = session_server () in
  let _ = create_session handle in
  let bytes_one =
    int_exn "context_bytes_live" (handle "/metrics").Http.resp_body
  in
  for _ = 1 to 3 do
    ignore (create_session handle)
  done;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "one interned context" 1
    (int_exn "contexts_interned" metrics);
  check Alcotest.int "one pinned entry" 1 (intern_stat "pinned" metrics);
  check Alcotest.int "four refs" 4 (intern_stat "refs" metrics);
  check Alcotest.int "one full build across four sessions" 1
    (int_exn "context_builds_full" metrics);
  check Alcotest.int "three interned reuses" 3
    (int_exn "context_builds_reused" metrics);
  check Alcotest.int "byte ledger holds one context" bytes_one
    (int_exn "context_bytes_live" metrics);
  let _, cold = session_server ~incremental:false () in
  ignore (create_session cold);
  check Alcotest.int "ablation interns nothing" 0
    (int_exn "contexts_interned" (cold "/metrics").Http.resp_body)

let without_id body =
  match Json.of_string body with
  | Ok (Json.Obj fields) ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> k <> "id") fields))
  | _ -> Alcotest.failf "bad session body %s" body

(* DELETE drops one ref per holder; the entry unpins only when the last
   holder goes, stays as a reuse-cache entry, and a later identical
   create re-pins it without rebuilding. *)
let test_server_intern_release () =
  let _, handle = session_server () in
  let a = create_session handle in
  let b = create_session handle in
  let a_body = (handle ("/session/" ^ a)).Http.resp_body in
  check Alcotest.int "delete a ok" 200
    (handle ~meth:"DELETE" ("/session/" ^ a)).Http.status;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "entry survives first delete" 1
    (int_exn "contexts_interned" metrics);
  check Alcotest.int "still pinned by b" 1 (intern_stat "pinned" metrics);
  check Alcotest.int "one ref left" 1 (intern_stat "refs" metrics);
  check Alcotest.int "delete b ok" 200
    (handle ~meth:"DELETE" ("/session/" ^ b)).Http.status;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "unpinned after last holder drops" 0
    (intern_stat "pinned" metrics);
  check Alcotest.int "zero refs" 0 (intern_stat "refs" metrics);
  check Alcotest.int "kept as a reuse-cache entry" 1
    (int_exn "contexts_interned" metrics);
  let c = create_session handle in
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "recreate is a cache hit, not a rebuild" 1
    (int_exn "context_builds_full" metrics);
  check Alcotest.int "re-pinned" 1 (intern_stat "pinned" metrics);
  check Alcotest.int "one ref again" 1 (intern_stat "refs" metrics);
  check Alcotest.string "recreated session identical modulo id"
    (without_id a_body)
    (without_id (handle ("/session/" ^ c)).Http.resp_body)

(* LRU eviction and TTL expiry release the evicted/expired session's ref
   exactly like an explicit delete. *)
let test_server_intern_expire_evict () =
  let _, handle = session_server ~max_sessions:2 () in
  for _ = 1 to 3 do
    ignore (create_session handle)
  done;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "one session evicted" 1
    (int_exn "sessions_evicted" metrics);
  check Alcotest.int "refs match surviving sessions" 2
    (intern_stat "refs" metrics);
  check Alcotest.int "one entry throughout" 1
    (int_exn "contexts_interned" metrics);
  let _, handle = session_server ~session_ttl_s:0.05 () in
  ignore (create_session handle);
  Unix.sleepf 0.1;
  ignore (create_session handle);
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "one session expired" 1
    (int_exn "sessions_expired" metrics);
  check Alcotest.int "expired session's ref released" 1
    (intern_stat "refs" metrics)

(* Demoting one of two holders releases only its ref — the entry stays
   pinned by the survivor, and the demoted session rewarms through the
   intern table (no rebuild) with a byte-identical body. *)
let test_server_intern_demote_rewarm () =
  let _, handle = session_server ~max_context_bytes:1 () in
  let a = create_session handle in
  let before = (handle ("/session/" ^ a)).Http.resp_body in
  let _b = create_session handle in
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "a demoted" 1 (int_exn "contexts_demoted" metrics);
  check Alcotest.int "entry still pinned by b" 1
    (intern_stat "pinned" metrics);
  check Alcotest.int "only b's ref remains" 1 (intern_stat "refs" metrics);
  check Alcotest.int "one full build" 1
    (int_exn "context_builds_full" metrics);
  let after = (handle ("/session/" ^ a)).Http.resp_body in
  check Alcotest.string "rewarm through the intern table byte-identical"
    before after;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.int "rewarm did not rebuild" 1
    (int_exn "context_builds_full" metrics);
  if int_exn "sessions_rewarmed" metrics < 1 then
    Alcotest.fail "rewarm not counted";
  check Alcotest.int "entry stays pinned" 1 (intern_stat "pinned" metrics)

(* ---- Batched mutations and params patches over HTTP --------------------- *)

(* GET /session bodies modulo the "runs" diagnostic (a batch regenerates
   once where a sequential replay regenerates k times — everything else
   must agree byte for byte). *)
let without_runs body =
  match Json.of_string body with
  | Ok (Json.Obj fields) ->
    Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "runs") fields))
  | _ -> Alcotest.failf "bad session body %s" body

let batch_ops_body =
  {|{"ops":[{"op":"add","rank":4},{"op":"size","size_bound":9},{"op":"remove","rank":2},{"op":"params","threshold_pct":25.0}]}|}

let test_server_apply_batch () =
  let _, warm = session_server () in
  let _, cold = session_server ~incremental:false () in
  let drive (handle : handler) =
    let id = create_session handle in
    let r =
      handle ~meth:"POST" ~body:batch_ops_body ("/session/" ^ id ^ "/apply")
    in
    check Alcotest.int "apply ok" 200 r.Http.status;
    (* the one response already reflects the whole batch *)
    check Alcotest.int "size applied" 9 (int_exn "size_bound" r.Http.resp_body);
    (match member_exn "ranks" r.Http.resp_body with
    | Json.List ranks ->
      check
        Alcotest.(list int)
        "ranks applied" [ 1; 3; 4 ]
        (List.filter_map (function Json.Int i -> Some i | _ -> None) ranks)
    | _ -> Alcotest.fail "no ranks");
    (* a singleton batch removing the newest result *)
    let r2 =
      handle ~meth:"POST" ~body:{|{"ops":[{"op":"remove","rank":4}]}|}
        ("/session/" ^ id ^ "/apply")
    in
    check Alcotest.int "singleton apply ok" 200 r2.Http.status;
    (handle ("/session/" ^ id)).Http.resp_body
  in
  let warm_body = drive warm and cold_body = drive cold in
  check Alcotest.string "warm batch = ablation batch byte-identical"
    cold_body warm_body;
  let metrics = (warm "/metrics").Http.resp_body in
  check Alcotest.int "ops_batched" 5 (int_exn "ops_batched" metrics);
  check Alcotest.int "one full build (creation)" 1
    (int_exn "context_builds_full" metrics);
  check Alcotest.int "one delta build per apply" 2
    (int_exn "context_builds_delta" metrics);
  check Alcotest.int "params op maintained by delta" 1
    (int_exn "reparams_delta" metrics);
  let cold_metrics = (cold "/metrics").Http.resp_body in
  check Alcotest.int "ablation: applies rebuild in full" 3
    (int_exn "context_builds_full" cold_metrics);
  check Alcotest.int "ablation: no delta builds" 0
    (int_exn "context_builds_delta" cold_metrics);
  (* one batch = the same final state as the equivalent single-op replay,
     modulo the runs diagnostic *)
  let _, seq = session_server () in
  let id = create_session seq in
  List.iter
    (fun (meth, suffix, body) ->
      check Alcotest.int (suffix ^ " ok") 200
        (seq ~meth ~body ("/session/" ^ id ^ "/" ^ suffix)).Http.status)
    [
      ("POST", "add", {|{"rank":4}|});
      ("POST", "size", {|{"size_bound":9}|});
      ("POST", "remove", {|{"rank":2}|});
      ("PATCH", "params", {|{"threshold_pct":25.0}|});
      ("POST", "remove", {|{"rank":4}|});
    ];
  check Alcotest.string "batch = sequential replay (modulo runs)"
    (without_runs (seq ("/session/" ^ id)).Http.resp_body)
    (without_runs warm_body)

let test_server_apply_atomic () =
  let _, handle = session_server () in
  let id = create_session handle in
  let before = (handle ("/session/" ^ id)).Http.resp_body in
  let apply body = handle ~meth:"POST" ~body ("/session/" ^ id ^ "/apply") in
  let expect what status body =
    check Alcotest.int what status (apply body).Http.status;
    check Alcotest.string (what ^ ": session untouched") before
      ((handle ("/session/" ^ id)).Http.resp_body)
  in
  expect "empty ops" 400 {|{"ops":[]}|};
  expect "missing ops" 400 {|{"nope":1}|};
  expect "unknown op" 422 {|{"ops":[{"op":"frobnicate"}]}|};
  expect "op without rank" 400 {|{"ops":[{"op":"add"}]}|};
  expect "duplicate within batch" 422
    {|{"ops":[{"op":"add","rank":4},{"op":"add","rank":4}]}|};
  expect "already selected" 422 {|{"ops":[{"op":"add","rank":1}]}|};
  expect "not selected" 422 {|{"ops":[{"op":"remove","rank":9}]}|};
  (* a bad op deep in the batch fails the whole batch: the valid prefix
     must not land *)
  expect "late bad op keeps batch atomic" 422
    {|{"ops":[{"op":"add","rank":4},{"op":"remove","rank":1},{"op":"size","size_bound":0}]}|};
  (* injected deadline expiry: 504, nothing lands *)
  let r =
    handle ~meth:"POST"
      ~headers:[ ("x-deadline-ms", "0") ]
      ~body:batch_ops_body
      ("/session/" ^ id ^ "/apply")
  in
  check Alcotest.int "expired apply is 504" 504 r.Http.status;
  check Alcotest.string "expired apply: session untouched" before
    ((handle ("/session/" ^ id)).Http.resp_body)

let test_server_params_patch () =
  let _, warm = session_server () in
  let _, cold = session_server ~incremental:false () in
  let drive (handle : handler) =
    let id = create_session handle in
    let patch body =
      handle ~meth:"PATCH" ~body ("/session/" ^ id ^ "/params")
    in
    check Alcotest.int "threshold + weights patch ok" 200
      (patch {|{"threshold_pct":25.0,"weights":{"review":2}}|}).Http.status;
    (* boundary values: zero threshold and zero weight are legal *)
    check Alcotest.int "zero threshold ok" 200
      (patch {|{"threshold_pct":0}|}).Http.status;
    check Alcotest.int "zero weight ok" 200
      (patch {|{"weights":{"review":0}}|}).Http.status;
    check Alcotest.int "measure patch ok" 200
      (patch {|{"measure":"rate"}|}).Http.status;
    (handle ("/session/" ^ id)).Http.resp_body
  in
  let warm_body = drive warm and cold_body = drive cold in
  check Alcotest.string "patched warm = patched ablation byte-identical"
    cold_body warm_body;
  let metrics = (warm "/metrics").Http.resp_body in
  check Alcotest.int "four reparams deltas" 4
    (int_exn "reparams_delta" metrics);
  check Alcotest.int "reparams by delta, creation aside" 1
    (int_exn "context_builds_full" metrics);
  check Alcotest.int "one delta build per patch" 4
    (int_exn "context_builds_delta" metrics);
  let cold_metrics = (cold "/metrics").Http.resp_body in
  check Alcotest.int "ablation: patches rebuild in full" 5
    (int_exn "context_builds_full" cold_metrics);
  check Alcotest.int "ablation books no reparams delta" 0
    (int_exn "reparams_delta" cold_metrics)

let test_server_params_errors () =
  let _, handle = session_server () in
  let id = create_session handle in
  let before = (handle ("/session/" ^ id)).Http.resp_body in
  let expect what status body =
    check Alcotest.int what status
      (handle ~meth:"PATCH" ~body ("/session/" ^ id ^ "/params")).Http.status;
    check Alcotest.string (what ^ ": session untouched") before
      ((handle ("/session/" ^ id)).Http.resp_body)
  in
  expect "negative weight is 422" 422 {|{"weights":{"country":-1}}|};
  expect "unknown measure is 422" 422 {|{"measure":"bogus"}|};
  expect "negative threshold is 422" 422 {|{"threshold_pct":-5}|};
  expect "wrong threshold type is 400" 400 {|{"threshold_pct":"high"}|};
  expect "wrong weights type is 400" 400 {|{"weights":[1,2]}|};
  expect "empty patch is 400" 400 {|{}|};
  (* the uniform error envelope: {"error": {"code", "message"}} with a
     stable machine-readable code per error class *)
  let r =
    handle ~meth:"PATCH" ~body:{|{"measure":"bogus"}|}
      ("/session/" ^ id ^ "/params")
  in
  (match member_exn "error" r.Http.resp_body with
  | Json.Obj fields ->
    (match List.assoc_opt "code" fields with
    | Some (Json.String code) ->
      check Alcotest.string "unknown measure code" "unprocessable" code
    | _ -> Alcotest.fail "no error code");
    (match List.assoc_opt "message" fields with
    | Some (Json.String msg) ->
      check Alcotest.string "unknown measure message"
        "unknown measure \"bogus\"" msg
    | _ -> Alcotest.fail "no error message")
  | _ -> Alcotest.fail "no error envelope")

(* A fresh state directory for [f], removed afterwards. *)
let with_state_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xsact_%s_%d" name (Unix.getpid ()))
  in
  let rm () =
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
  in
  rm ();
  Fun.protect ~finally:rm (fun () -> f dir)

(* Journal [entry] under [id] into [dir] as the daemon's store hook would,
   without a server: how a test lays down an entry of an older format, or
   a corrupt one. *)
let journal_entry dir ~id entry =
  let d, _ =
    Durability.recover ~dir ~fsync:Xsact_persist.Journal.Never ~snapshot_every:0
  in
  Durability.log_upsert d ~op:"create" ~id ~at:(Unix.gettimeofday ()) ~entry

(* The new origins journal one record per request and replay on boot:
   a batch and a patch survive recovery with byte-identical session
   state. *)
let test_server_apply_durable () =
  with_state_dir "incr" (fun dir ->
      let t, handle = session_server ~state_dir:dir () in
      Server.recover t;
      let id = create_session handle in
      check Alcotest.int "apply ok" 200
        (handle ~meth:"POST" ~body:batch_ops_body
           ("/session/" ^ id ^ "/apply"))
          .Http.status;
      check Alcotest.int "patch ok" 200
        (handle ~meth:"PATCH" ~body:{|{"threshold_pct":30.0}|}
           ("/session/" ^ id ^ "/params"))
          .Http.status;
      let before = (handle ("/session/" ^ id)).Http.resp_body in
      let t2, handle2 = session_server ~state_dir:dir () in
      Server.recover t2;
      check Alcotest.string "recovered session byte-identical (modulo runs)"
        (without_runs before)
        (without_runs (handle2 ("/session/" ^ id)).Http.resp_body))

(* ---- One lock over session state ----------------------------------------- *)

(* Start [request] on its own thread and return once it is parked in its
   first generation round: [compare.round] sleeps that one round, then
   is disarmed so the rest run at full speed. The result is a join. The
   caller resets the failpoints. *)
let park request =
  Failpoint.enable "compare.round" (Failpoint.Sleep 0.3);
  let result = ref None in
  let th = Thread.create (fun () -> result := Some (request ())) () in
  let deadline = Unix.gettimeofday () +. 10. in
  while Failpoint.hits "compare.round" = 0 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "request never reached a generation round";
    Thread.delay 0.002
  done;
  Failpoint.disable "compare.round";
  fun () ->
    Thread.join th;
    Option.get !result

(* A DELETE that lands while a resize of the same session is computing
   waits for it, and then the session is gone — also for a restart,
   because nothing journals it back after the delete. *)
let test_server_delete_during_resize () =
  with_state_dir "delsize" (fun dir ->
      Fun.protect ~finally:Failpoint.reset (fun () ->
          let t, handle = session_server ~state_dir:dir () in
          Server.recover t;
          let id = create_session handle in
          let resize =
            park (fun () ->
                handle ~meth:"POST" ~body:{|{"size_bound":9}|}
                  ("/session/" ^ id ^ "/size"))
          in
          check Alcotest.int "delete ok" 200
            (handle ~meth:"DELETE" ("/session/" ^ id)).Http.status;
          check Alcotest.int "resize ok" 200 (resize ()).Http.status;
          check Alcotest.int "deleted session stays deleted" 404
            (handle ("/session/" ^ id)).Http.status;
          let t2, handle2 = session_server ~state_dir:dir () in
          Server.recover t2;
          check Alcotest.int "still deleted after a restart" 404
            (handle2 ("/session/" ^ id)).Http.status))

(* A DELETE that lands while a journal-recovered cell rewarms on its first
   GET waits for the rewarm and then releases the reference the rewarm
   took: nothing stays pinned. The entry is journaled without DFSs, as
   entries were before they carried them, so the rewarm regenerates and
   [compare.round] parks it. *)
let test_server_delete_during_rewarm () =
  with_state_dir "delwarm" (fun dir ->
      Fun.protect ~finally:Failpoint.reset (fun () ->
          let id = "s1" in
          journal_entry dir ~id
            (Result.get_ok
               (Json.of_string
                  (Printf.sprintf
                     {|{"v":1,"dataset":"product-reviews","request":%s,"ranks":[1,2,3],"size_bound":6}|}
                     (compare_body 6))));
          let t2, handle2 = session_server ~state_dir:dir () in
          Server.recover t2;
          let get = park (fun () -> handle2 ("/session/" ^ id)) in
          check Alcotest.int "delete ok" 200
            (handle2 ~meth:"DELETE" ("/session/" ^ id)).Http.status;
          check Alcotest.int "rewarming GET ok" 200 (get ()).Http.status;
          let metrics = (handle2 "/metrics").Http.resp_body in
          check Alcotest.int "no session left" 0
            (int_exn "sessions_live" metrics);
          check Alcotest.int "no reference left" 0
            (intern_stat "refs" metrics);
          check Alcotest.int "nothing pinned" 0 (intern_stat "pinned" metrics)))

(* A create that evicts another session, where journaling the eviction
   fails, raises out of the store before the new cell is inserted. The
   client gets its 500, and the new entry's intern reference, which no
   cell holds, is released: nothing stays pinned. *)
let test_server_failed_create_releases_ref () =
  with_state_dir "failcreate" (fun dir ->
      Fun.protect ~finally:Failpoint.reset (fun () ->
          let t, handle = session_server ~max_sessions:1 ~state_dir:dir () in
          Server.recover t;
          ignore (create_session handle);
          Failpoint.enable "persist.append" (Failpoint.Fail_n 1);
          let created =
            handle ~meth:"POST"
              ~body:
                {|{"dataset":"product-reviews","q":"camera","top":3,"size_bound":6}|}
              "/session"
          in
          check Alcotest.int "create answers 500" 500 created.Http.status;
          let metrics = (handle "/metrics").Http.resp_body in
          check Alcotest.int "no reference left" 0 (intern_stat "refs" metrics);
          check Alcotest.int "nothing pinned" 0 (intern_stat "pinned" metrics)))

(* An entry without usable q-vectors costs its resume, never its session:
   one journaled before entries carried them regenerates from its recipe,
   and so do corrupt ones — a vector short, a count out of range, a count
   that is not a decimal, "dfss" that is not a string, "runs" that is not
   an integer. The recipe is gps, top 4, bound 7 resized to 5, whose
   served DFSs (DoD 23) a fresh create at bound 5 (DoD 11) does not
   reach, so each body shows which path ran. *)
let test_server_entries_without_dfss () =
  let acked, entry =
    with_state_dir "dfss" (fun dir ->
        let t, handle = session_server ~state_dir:dir () in
        Server.recover t;
        let created =
          handle ~meth:"POST"
            ~body:{|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":7}|}
            "/session"
        in
        check Alcotest.int "created" 201 created.Http.status;
        check Alcotest.int "resized" 200
          (handle ~meth:"POST" ~body:{|{"size_bound":5}|} "/session/s1/size")
            .Http.status;
        let _, recovered =
          Durability.recover ~dir ~fsync:Xsact_persist.Journal.Never
            ~snapshot_every:0
        in
        match recovered.Durability.entries with
        | [ ("s1", _, entry) ] ->
          ((handle "/session/s1").Http.resp_body, entry)
        | _ -> Alcotest.fail "expected the one entry")
  in
  check Alcotest.int "acked at the warm-started DoD" 23 (int_exn "dod" acked);
  let fresh =
    let _, handle = session_server () in
    check Alcotest.int "fresh create" 201
      (handle ~meth:"POST"
         ~body:{|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":5}|}
         "/session")
        .Http.status;
    (handle "/session/s1").Http.resp_body
  in
  check Alcotest.int "a fresh create serves less" 11 (int_exn "dod" fresh);
  let fields = match entry with Json.Obj f -> f | _ -> [] in
  let dfss =
    match List.assoc_opt "dfss" fields with
    | Some (Json.String q) -> q
    | _ -> Alcotest.fail "the entry carries no q-vectors"
  in
  let with_resume resume =
    Json.Obj
      (List.filter (fun (k, _) -> k <> "dfss" && k <> "runs") fields @ resume)
  in
  let first_count_as c =
    let rec stop i =
      if i = String.length dfss || dfss.[i] = ',' || dfss.[i] = ';' then i
      else stop (i + 1)
    in
    let i = stop 0 in
    c ^ String.sub dfss i (String.length dfss - i)
  in
  let serves entry =
    with_state_dir "dfss_variant" (fun dir ->
        journal_entry dir ~id:"s1" entry;
        let t, handle = session_server ~state_dir:dir () in
        Server.recover t;
        let got = handle "/session/s1" in
        check Alcotest.int "served" 200 got.Http.status;
        got.Http.resp_body)
  in
  check Alcotest.string "the entry as journaled resumes" acked (serves entry);
  List.iter
    (fun (what, resume) ->
      check Alcotest.string (what ^ " regenerates") fresh
        (serves (with_resume resume)))
    [
      ("no q-vectors", []);
      ( "a vector short",
        [ ("dfss", Json.String (String.sub dfss 0 (String.rindex dfss ';')));
          ("runs", Json.Int 2) ] );
      ( "a count out of range",
        [ ("dfss", Json.String (first_count_as "999")); ("runs", Json.Int 2) ] );
      ( "a count not a decimal",
        [ ("dfss", Json.String (first_count_as "x")); ("runs", Json.Int 2) ] );
      ("dfss not a string", [ ("dfss", Json.Int 3); ("runs", Json.Int 2) ]);
      ("runs not an int", [ ("dfss", Json.String dfss); ("runs", Json.String "2") ]);
    ]

(* Seeded sequences of the session ops on a state-dir server. After each
   sequence a second server recovers the same directory while the first
   still runs, as after a crash, and must serve every live session's GET
   body byte-identically, runs included. The cases share one primary and
   one directory — each deletes what the previous one left — so a case
   costs one recovery, over the smallest corpus. *)
let crash_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xsact_crash_%d" (Unix.getpid ()))

let crash_primary =
  lazy
    (let rm () =
       ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote crash_dir)))
     in
     rm ();
     at_exit rm;
     let t = Server.create ~datasets:[ "outdoor-retailer" ] ~state_dir:crash_dir () in
     Server.recover t;
     fun ?meth ?body target -> Server.handle t (request ?meth ?body target))

let crash_step prng ids =
  let queries = [| "men jackets"; "hiking boots"; "backpacking tents" |] in
  let at suffix =
    match !ids with
    | [] -> "/session/none" ^ suffix
    | l -> "/session/" ^ List.nth l (Prng.int prng (List.length l)) ^ suffix
  in
  let rank () = 1 + Prng.int prng 7 in
  let bound () = Prng.int_in prng 1 12 in
  match Prng.int prng 8 with
  | 0 | 1 ->
    ( "POST",
      "/session",
      Printf.sprintf
        {|{"dataset":"outdoor-retailer","q":%S,"top":%d,"size_bound":%d}|}
        queries.(Prng.int prng (Array.length queries))
        (Prng.int_in prng 2 5) (bound ()) )
  | 2 -> ("POST", at "/size", Printf.sprintf {|{"size_bound":%d}|} (bound ()))
  | 3 -> ("POST", at "/add", Printf.sprintf {|{"rank":%d}|} (rank ()))
  | 4 -> ("POST", at "/remove", Printf.sprintf {|{"rank":%d}|} (rank ()))
  | 5 ->
    ( "PATCH",
      at "/params",
      Printf.sprintf {|{"threshold_pct":%d.0}|} (5 * Prng.int_in prng 1 8) )
  | 6 ->
    ( "POST",
      at "/apply",
      Printf.sprintf
        {|{"ops":[{"op":"add","rank":%d},{"op":"size","size_bound":%d}]}|}
        (rank ()) (bound ()) )
  | _ -> ("DELETE", at "", "")

let prop_crash_recovery_byte_identical =
  QCheck.Test.make ~name:"a crash recovery serves every acked body" ~count:200
    (QCheck.make
       ~print:(Printf.sprintf "seed %d")
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let handle = Lazy.force crash_primary in
      let live () =
        match member_exn "sessions" (handle "/session").Http.resp_body with
        | Json.List ids -> List.filter_map Json.to_str ids
        | _ -> []
      in
      List.iter (fun id -> ignore (handle ~meth:"DELETE" ("/session/" ^ id)))
        (live ());
      let prng = Prng.of_int seed in
      let ids = ref [] in
      for _ = 1 to 10 do
        let meth, target, body = crash_step prng ids in
        let resp = handle ~meth ~body target in
        if meth = "POST" && target = "/session" && resp.Http.status = 201 then
          match member_exn "id" resp.Http.resp_body with
          | Json.String id -> ids := !ids @ [ id ]
          | _ -> ()
      done;
      let acked =
        List.map (fun id -> (id, (handle ("/session/" ^ id)).Http.resp_body))
          (live ())
      in
      let t = Server.create ~datasets:[ "outdoor-retailer" ] ~state_dir:crash_dir () in
      Server.recover t;
      List.iter
        (fun (id, body) ->
          let got = Server.handle t (request ("/session/" ^ id)) in
          if got.Http.resp_body <> body then
            QCheck.Test.fail_reportf "seed %d: %s after the crash: %s, acked %s"
              seed id got.Http.resp_body body)
        acked;
      true)

(* Seeded sequences of every session op, plus /compare, against a server
   small enough (3 sessions, a 60 kB context budget) that LRU eviction
   and budget demotion fire. After every step, the intern table's refs
   equal the warm sessions on the incremental server — one reference per
   warm cell — and are 0 on the ablation, which interns nothing. *)
let session_queries = [| "gps"; "tomtom gps"; "camera" |]

let session_step prng ids =
  let pick () =
    match !ids with
    | [] -> "s1"
    | l -> List.nth l (Prng.int prng (List.length l))
  in
  let at id suffix = "/session/" ^ id ^ suffix in
  let rank () = 1 + Prng.int prng 7 in
  let bound () = Prng.int_in prng 1 12 in
  match Prng.int prng 11 with
  | 0 | 1 ->
    let body =
      Printf.sprintf
        {|{"dataset":"product-reviews","q":%S,"top":%d,"size_bound":%d}|}
        session_queries.(Prng.int prng (Array.length session_queries))
        (Prng.int_in prng 2 5) (bound ())
    in
    ("POST", "/session", body)
  | 2 ->
    ( "POST",
      at (pick ()) "/size",
      Printf.sprintf {|{"size_bound":%d}|} (bound ()) )
  | 3 -> ("POST", at (pick ()) "/add", Printf.sprintf {|{"rank":%d}|} (rank ()))
  | 4 ->
    ("POST", at (pick ()) "/remove", Printf.sprintf {|{"rank":%d}|} (rank ()))
  | 5 ->
    ( "PATCH",
      at (pick ()) "/params",
      Printf.sprintf {|{"threshold_pct":%d.0}|} (5 * Prng.int_in prng 1 8) )
  | 6 ->
    ( "POST",
      at (pick ()) "/apply",
      Printf.sprintf
        {|{"ops":[{"op":"add","rank":%d},{"op":"size","size_bound":%d}]}|}
        (rank ()) (bound ()) )
  | 7 | 8 -> ("GET", at (pick ()) "", "")
  | 9 -> ("DELETE", at (pick ()) "", "")
  | _ ->
    ( "POST",
      "/compare",
      Printf.sprintf
        {|{"dataset":"product-reviews","q":"gps","top":%d,"size_bound":%d}|}
        (Prng.int_in prng 2 5) (bound ()) )

let prop_session_refs_track_warm =
  QCheck.Test.make ~name:"intern refs = warm sessions after every op"
    ~count:15
    (QCheck.make
       ~print:(Printf.sprintf "seed %d")
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      List.iter
        (fun incremental ->
          let _, handle =
            session_server ~incremental ~max_sessions:3
              ~max_context_bytes:60_000 ()
          in
          let prng = Prng.of_int seed in
          let ids = ref [] in
          for step = 1 to 30 do
            let meth, target, body = session_step prng ids in
            let resp = handle ~meth ~body target in
            (if meth = "POST" && target = "/session" && resp.Http.status = 201
             then
               match member_exn "id" resp.Http.resp_body with
               | Json.String id -> ids := !ids @ [ id ]
               | _ -> ());
            let metrics = (handle "/metrics").Http.resp_body in
            let refs = intern_stat "refs" metrics in
            let expected =
              if incremental then int_exn "sessions_warm" metrics else 0
            in
            if refs <> expected then
              QCheck.Test.fail_reportf
                "seed %d, %s server, step %d (%s %s %s -> %d): refs %d, \
                 expected %d"
                seed
                (if incremental then "incremental" else "ablation")
                step meth target body resp.Http.status refs expected
          done)
        [ true; false ];
      true)

let () =
  Alcotest.run "xsact_incremental"
    [
      ( "dod_delta",
        [
          Alcotest.test_case "add = fresh" `Quick test_add_equals_fresh;
          Alcotest.test_case "remove = fresh" `Quick test_remove_equals_fresh;
          Alcotest.test_case "add/remove roundtrip" `Quick
            test_add_remove_roundtrip;
          Alcotest.test_case "reparams = fresh" `Quick
            test_reparams_equals_fresh;
          Alcotest.test_case "delta errors" `Quick test_delta_errors;
          Alcotest.test_case "deadline mid-delta" `Quick
            test_deadline_mid_delta;
          Alcotest.test_case "approx_bytes sane" `Quick test_approx_bytes_sane;
          Alcotest.test_case "keep + add = fresh" `Quick
            test_keep_add_equals_fresh;
          Alcotest.test_case "approx_bytes accounting" `Quick
            test_approx_bytes_accounting;
        ] );
      ( "session",
        [
          Alcotest.test_case "shrink deterministic vs cold run" `Quick
            test_shrink_deterministic;
          Alcotest.test_case "deadline leaves session intact" `Quick
            test_session_deadline_intact;
          Alcotest.test_case "apply batch = fresh" `Quick
            test_apply_batch_equals_fresh;
          Alcotest.test_case "apply cancelling pairs" `Quick
            test_apply_cancelling_pairs;
          Alcotest.test_case "apply errors" `Quick test_apply_errors;
          qtest prop_mutations_bit_identical;
          qtest prop_batches_bit_identical;
        ] );
      ( "serve",
        [
          Alcotest.test_case "mutation accounting" `Quick
            test_server_mutation_accounting;
          Alcotest.test_case "ablation byte-identical" `Quick
            test_server_ablation_identical;
          Alcotest.test_case "compare context reuse" `Quick
            test_compare_context_reuse;
          Alcotest.test_case "demote after resize keeps the table" `Quick
            test_server_demote_after_resize;
          Alcotest.test_case "demote and rewarm" `Quick
            test_server_demote_rewarm;
          Alcotest.test_case "intern sharing across sessions" `Quick
            test_server_intern_sharing;
          Alcotest.test_case "intern release on delete" `Quick
            test_server_intern_release;
          Alcotest.test_case "intern release on expire/evict" `Quick
            test_server_intern_expire_evict;
          Alcotest.test_case "intern demote keeps survivors pinned" `Quick
            test_server_intern_demote_rewarm;
          Alcotest.test_case "apply batch" `Quick test_server_apply_batch;
          Alcotest.test_case "apply atomic on errors" `Quick
            test_server_apply_atomic;
          Alcotest.test_case "params patch" `Quick test_server_params_patch;
          Alcotest.test_case "params patch errors" `Quick
            test_server_params_errors;
          Alcotest.test_case "apply and params durable" `Quick
            test_server_apply_durable;
          Alcotest.test_case "delete during resize stays deleted" `Quick
            test_server_delete_during_resize;
          Alcotest.test_case "delete during rewarm releases the ref" `Quick
            test_server_delete_during_rewarm;
          Alcotest.test_case "failed create releases its ref" `Quick
            test_server_failed_create_releases_ref;
          Alcotest.test_case "entries without usable q-vectors regenerate"
            `Quick test_server_entries_without_dfss;
          qtest prop_session_refs_track_warm;
          qtest prop_crash_recovery_byte_identical;
        ] );
    ]
