(* The pure cluster state machine: transitions, the write gate and the
   election, with no sockets, threads or clocks. *)

module C = Xsact_server.Cluster

let check = Alcotest.check
let pp show ppf x = Format.pp_print_string ppf (show x)
let qtest = QCheck_alcotest.to_alcotest
let a1 = ("127.0.0.1", 7001)
let a2 = ("127.0.0.1", 7002)
let a3 = ("127.0.0.1", 7003)
let primary = C.init ()
let follower = C.init ~primary:a1 ()

let show_role = function
  | C.Primary -> "primary"
  | C.Follower -> "follower"
  | C.Fenced -> "fenced"

let role = Alcotest.testable (pp show_role) ( = )

let show_effect = function
  | C.Persist_fence { epoch; winner } ->
    Printf.sprintf "persist %d %s" epoch (Option.value winner ~default:"-")
  | C.Start_fencer e -> Printf.sprintf "fencer %d" e
  | C.Ensure_client -> "ensure-client"
  | C.Stop_client -> "stop-client"
  | C.Count name -> "count " ^ name

let effects = Alcotest.list (Alcotest.testable (pp show_effect) ( = ))
let addr = Alcotest.(option (pair string int))

let test_promote () =
  let f5 = { follower with C.epoch = 5 } in
  let t, fx = C.step f5 (C.Promote None) in
  check role "primary" C.Primary t.C.role;
  check Alcotest.int "mints epoch + 1" 6 t.C.epoch;
  check addr "follows nobody" None t.C.primary;
  check effects "persist first, fencer last"
    [
      C.Persist_fence { epoch = 6; winner = None };
      C.Stop_client;
      C.Count "promotions";
      C.Start_fencer 6;
    ]
    fx;
  (* idempotent on a primary; the CAS guard refuses a stale epoch *)
  check effects "re-promote is a no-op" [] (snd (C.step t (C.Promote None)));
  let t', fx = C.step f5 (C.Promote (Some 4)) in
  check Alcotest.bool "stale CAS: unchanged" true (t' = f5 && fx = []);
  let t', _ = C.step f5 (C.Promote (Some 5)) in
  check Alcotest.int "matching CAS promotes" 6 t'.C.epoch;
  (* promotion clears a fence *)
  let fenced =
    { C.role = C.Fenced; epoch = 3; winner = Some "127.0.0.1:7002"; primary = Some a2 }
  in
  let t, _ = C.step fenced (C.Promote (Some 3)) in
  check Alcotest.bool "fence cleared" true
    (t.C.role = C.Primary && t.C.winner = None && t.C.epoch = 4)

let test_observe_primary () =
  let t, fx =
    C.step primary (C.Observe { epoch = 5; winner = Some "127.0.0.1:7002" })
  in
  check role "fenced" C.Fenced t.C.role;
  check Alcotest.int "epoch adopted" 5 t.C.epoch;
  check Alcotest.(option string) "winner recorded" (Some "127.0.0.1:7002")
    t.C.winner;
  check addr "follows the winner" (Some a2) t.C.primary;
  check effects "durable fence, then demote"
    [
      C.Persist_fence { epoch = 5; winner = Some "127.0.0.1:7002" };
      C.Count "demotions";
      C.Ensure_client;
    ]
    fx;
  (* a subscriber's epoch carries no winner: still fenced *)
  let t, _ = C.step primary (C.Observe { epoch = 2; winner = None }) in
  check role "fenced without a winner" C.Fenced t.C.role;
  (* at or below our epoch: the stale prober's problem *)
  let p3 = { primary with C.epoch = 3 } in
  List.iter
    (fun e ->
      let t, fx = C.step p3 (C.Observe { epoch = e; winner = None }) in
      check Alcotest.bool
        (Printf.sprintf "epoch %d is a no-op" e)
        true
        (t = p3 && fx = []))
    [ 0; 3 ]

let test_observe_follower () =
  let t, fx =
    C.step follower (C.Observe { epoch = 4; winner = Some "127.0.0.1:7003" })
  in
  check role "still a follower" C.Follower t.C.role;
  check Alcotest.int "epoch adopted" 4 t.C.epoch;
  check Alcotest.(option string) "no winner recorded" None t.C.winner;
  check addr "re-pointed at the winner" (Some a3) t.C.primary;
  check effects "persist only" [ C.Persist_fence { epoch = 4; winner = None } ] fx;
  (* a fenced node adopting a newer epoch stays fenced; the old winner goes *)
  let fenced =
    { C.role = C.Fenced; epoch = 1; winner = Some "127.0.0.1:7002"; primary = Some a2 }
  in
  let t, _ = C.step fenced (C.Observe { epoch = 2; winner = None }) in
  check Alcotest.bool "fenced, epoch 2, target kept" true
    (t.C.role = C.Fenced && t.C.epoch = 2 && t.C.winner = None
    && t.C.primary = Some a2)

let test_step_down_and_follow () =
  let p7 = { primary with C.epoch = 7 } in
  let t, fx = C.step p7 C.Step_down in
  check role "stepped down" C.Follower t.C.role;
  check Alcotest.int "epoch unchanged" 7 t.C.epoch;
  check effects "no fence written" [ C.Count "demotions"; C.Ensure_client ] fx;
  check effects "a follower cannot step down" [] (snd (C.step t C.Step_down));
  (* the boot probe: a primary that finds a live one joins it *)
  let t, fx = C.step p7 (C.Follow a2) in
  check Alcotest.bool "follower of a2" true
    (t.C.role = C.Follower && t.C.primary = Some a2 && t.C.epoch = 7);
  check effects "counted as a demotion" [ C.Count "demotions"; C.Ensure_client ]
    fx;
  let t, fx = C.step follower (C.Follow a3) in
  check addr "re-point" (Some a3) t.C.primary;
  check effects "re-point has no effect" [] fx

let test_recovered () =
  let t, fx =
    C.step primary (C.Recovered { epoch = 4; winner = Some "127.0.0.1:7002" })
  in
  check Alcotest.bool "a winner on disk boots fenced" true
    (t.C.role = C.Fenced && t.C.epoch = 4 && t.C.primary = Some a2 && fx = []);
  let t, _ = C.step primary (C.Recovered { epoch = 4; winner = None }) in
  check role "no winner: primary" C.Primary t.C.role;
  let t, _ =
    C.step follower (C.Recovered { epoch = 4; winner = Some "127.0.0.1:7002" })
  in
  check Alcotest.bool "--replica-of wins over the record" true
    (t.C.role = C.Follower && t.C.primary = Some a1)

let test_gate () =
  let fenced = { follower with C.role = C.Fenced; epoch = 2 } in
  let p2 = { primary with C.epoch = 2 } in
  let cases =
    [
      (p2, C.Read, C.Allow);
      (p2, C.Write, C.Allow);
      (p2, C.Subscribe 2, C.Allow);
      (p2, C.Subscribe 3, C.Superseded);
      (follower, C.Read, C.Allow);
      (follower, C.Write, C.Refuse_follower);
      (follower, C.Subscribe 9, C.Refuse_follower);
      (fenced, C.Read, C.Allow);
      (fenced, C.Write, C.Refuse_fenced);
      (fenced, C.Subscribe 0, C.Refuse_fenced);
    ]
  in
  List.iteri
    (fun i (t, access, want) ->
      check Alcotest.bool (Printf.sprintf "gate case %d" i) true
        (C.gate t access = want))
    cases

let peer ?(role = C.Follower) addr epoch =
  { C.p_addr = addr; p_role = role; p_epoch = epoch; p_primary = None }

let show_decision = function
  | Some (C.Follow (h, p)) -> Printf.sprintf "follow %s:%d" h p
  | Some (C.Promote _) -> "promote"
  | Some _ -> "other"
  | None -> "defer"

let decision = Alcotest.testable (pp show_decision) ( = )

let test_elect () =
  let elect ?(self = Some a2) ~epoch peers = C.elect ~self ~epoch peers in
  check decision "highest-epoch primary wins" (Some (C.Follow a3))
    (elect ~epoch:1
       [ peer ~role:C.Primary a1 1; peer ~role:C.Primary a3 2; peer a2 5 ]);
  check decision "equal epochs: lowest address" (Some (C.Follow a1))
    (elect ~epoch:0 [ peer ~role:C.Primary a3 2; peer ~role:C.Primary a1 2 ]);
  check decision "a lower-epoch primary is ignored" (Some (C.Promote None))
    (elect ~epoch:3 [ peer ~role:C.Primary a1 2; peer a3 3 ]);
  check decision "a higher-epoch follower outranks us" None
    (elect ~epoch:1 [ peer a3 2 ]);
  check decision "equal epoch, lower address outranks us" None
    (elect ~epoch:1 [ peer a1 1 ]);
  check decision "equal epoch, higher address does not" (Some (C.Promote None))
    (elect ~epoch:1 [ peer a3 1 ]);
  check decision "lower-epoch followers do not" (Some (C.Promote None))
    (elect ~epoch:1 [ peer a1 0 ]);
  check decision "unadvertised: nobody outranks" (Some (C.Promote None))
    (elect ~self:None ~epoch:0 [ peer a1 9 ]);
  check decision "nobody answered" (Some (C.Promote None)) (elect ~epoch:0 [])

(* ---- Random event sequences (property) ---------------------------------- *)

let addrs = [| a1; a2; a3 |]

let event_gen =
  QCheck.Gen.(
    let addr = map (fun i -> addrs.(i)) (int_range 0 2) in
    let winner =
      opt (map (fun i -> C.addr_string addrs.(i)) (int_range 0 2))
    in
    frequency
      [
        (2, map (fun e -> C.Promote e) (opt (int_range 0 6)));
        ( 3,
          map2
            (fun epoch winner -> C.Observe { epoch; winner })
            (int_range 0 8) winner );
        (1, return C.Step_down);
        (2, map (fun a -> C.Follow a) addr);
      ])

let show_event = function
  | C.Recovered { epoch; _ } -> Printf.sprintf "recovered %d" epoch
  | C.Promote None -> "promote"
  | C.Promote (Some e) -> Printf.sprintf "promote@%d" e
  | C.Observe { epoch; winner } ->
    Printf.sprintf "observe %d %s" epoch (Option.value winner ~default:"-")
  | C.Step_down -> "step-down"
  | C.Follow a -> "follow " ^ C.addr_string a

(* Over any event sequence from any boot state: the epoch never
   decreases; no primary carries a fencing winner (a primary is never
   fenced); and every epoch change is made durable first — its first
   effect persists exactly the new epoch. *)
let prop_invariants =
  QCheck.Test.make ~name:"random event sequences keep the fencing invariants"
    ~count:500
    QCheck.(
      make
        ~print:(fun (boot, evs) ->
          Printf.sprintf "boot=%s [%s]" (show_event boot)
            (String.concat "; " (List.map show_event evs)))
        Gen.(
          pair
            (map2
               (fun epoch winner -> C.Recovered { epoch; winner })
               (int_range 0 3)
               (opt (return (C.addr_string a3))))
            (list_size (int_range 1 40) event_gen)))
    (fun (boot, evs) ->
      List.for_all
        (fun init ->
          let t0, _ = C.step init boot in
          let _ =
            List.fold_left
              (fun t ev ->
                let t', fx = C.step t ev in
                if t'.C.epoch < t.C.epoch then
                  QCheck.Test.fail_reportf "%s: epoch %d -> %d" (show_event ev)
                    t.C.epoch t'.C.epoch;
                if t'.C.role = C.Primary && t'.C.winner <> None then
                  QCheck.Test.fail_reportf "%s: a primary with a winner"
                    (show_event ev);
                (if t'.C.epoch <> t.C.epoch then
                   match fx with
                   | C.Persist_fence { epoch; _ } :: _ when epoch = t'.C.epoch -> ()
                   | _ ->
                     QCheck.Test.fail_reportf "%s: epoch %d not persisted first"
                       (show_event ev) t'.C.epoch);
                t')
              t0 evs
          in
          true)
        [ primary; follower ])

let () =
  Alcotest.run "xsact_cluster"
    [
      ( "step",
        [
          Alcotest.test_case "promote" `Quick test_promote;
          Alcotest.test_case "higher epoch fences a primary" `Quick
            test_observe_primary;
          Alcotest.test_case "higher epoch on a follower" `Quick
            test_observe_follower;
          Alcotest.test_case "step-down and follow" `Quick
            test_step_down_and_follow;
          Alcotest.test_case "recovered fence" `Quick test_recovered;
        ] );
      ("gate", [ Alcotest.test_case "write gate" `Quick test_gate ]);
      ("elect", [ Alcotest.test_case "ranking" `Quick test_elect ]);
      ("property", [ qtest prop_invariants ]);
    ]
