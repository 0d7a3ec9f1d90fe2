(* Overload and failure-path tests: deadline/cancellation tokens, the
   failpoint harness, a deadline tripping mid context build, deadline
   determinism of the anytime algorithms, session TTL/LRU hygiene, and
   end-to-end daemon survival under slow computations, shed bursts and
   mid-response disconnects. *)

module Deadline = Xsact_util.Deadline
module Failpoint = Xsact_util.Failpoint
module Http = Xsact_server.Http
module Json = Xsact_server.Json
module Server = Xsact_server.Server
module Session_store = Xsact_server.Session_store

let check = Alcotest.check

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

let event_count metrics_body name =
  match Json.member name (member_exn "events" metrics_body) with
  | Some (Json.Int n) -> n
  | _ -> 0

(* ---- Deadline tokens ------------------------------------------------------- *)

let test_deadline_basics () =
  let t = Deadline.create () in
  check Alcotest.bool "no budget, not over" false (Deadline.over (Some t));
  check Alcotest.bool "none never over" false (Deadline.over None);
  Deadline.cancel t;
  check Alcotest.bool "cancel trips" true (Deadline.over (Some t));
  check Alcotest.bool "cancelled" true (Deadline.cancelled t);
  check (Alcotest.float 0.) "no remaining once cancelled" 0.
    (Deadline.remaining_s t);
  let zero = Deadline.of_ms 0. in
  check Alcotest.bool "zero budget expires immediately" true
    (Deadline.expired zero);
  let generous = Deadline.of_ms 3_600_000. in
  check Alcotest.bool "generous budget not over" false
    (Deadline.over (Some generous));
  check Alcotest.bool "remaining positive" true
    (Deadline.remaining_s generous > 0.);
  (match Deadline.check (Some zero) with
  | () -> Alcotest.fail "check on a tripped token must raise"
  | exception Deadline.Expired -> ());
  Deadline.check None;
  Deadline.check (Some generous);
  match Deadline.create ~budget_s:(-1.) () with
  | _ -> Alcotest.fail "negative budget accepted"
  | exception Invalid_argument _ -> ()

(* ---- Failpoints ------------------------------------------------------------ *)

let test_failpoint_actions () =
  Failpoint.reset ();
  (* disarmed: a hit is a no-op *)
  Failpoint.hit "nowhere";
  Failpoint.enable "t.fail" Failpoint.Fail;
  (match Failpoint.hit "t.fail" with
  | () -> Alcotest.fail "armed Fail point did not raise"
  | exception Failpoint.Injected "t.fail" -> ()
  | exception Failpoint.Injected other ->
    Alcotest.failf "wrong point name %s" other);
  Failpoint.hit "t.other" (* other points unaffected *);
  Failpoint.enable "t.twice" (Failpoint.Fail_n 2);
  let raises () =
    match Failpoint.hit "t.twice" with
    | () -> false
    | exception Failpoint.Injected _ -> true
  in
  let r1 = raises () in
  let r2 = raises () in
  let r3 = raises () in
  let r4 = raises () in
  check Alcotest.(list bool) "fail:2 fails twice then passes"
    [ true; true; false; false ]
    [ r1; r2; r3; r4 ];
  check Alcotest.int "hits counted" 4 (Failpoint.hits "t.twice");
  Failpoint.enable "t.sleep" (Failpoint.Sleep 0.05);
  let t0 = Unix.gettimeofday () in
  Failpoint.hit "t.sleep";
  if Unix.gettimeofday () -. t0 < 0.04 then
    Alcotest.fail "Sleep point did not delay";
  Failpoint.disable "t.fail";
  Failpoint.hit "t.fail";
  Failpoint.reset ();
  Failpoint.hit "t.twice";
  check Alcotest.int "reset zeroes counts" 0 (Failpoint.hits "t.twice")

let test_failpoint_configure () =
  Failpoint.reset ();
  (match Failpoint.configure "a.b=fail:1,c.d=sleep:0.001;e.f=fail" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match Failpoint.hit "a.b" with
  | () -> Alcotest.fail "configured point not armed"
  | exception Failpoint.Injected _ -> ());
  Failpoint.hit "a.b" (* fail:1 passes afterwards *);
  Failpoint.hit "c.d";
  let bad spec =
    match Failpoint.configure spec with
    | Ok () -> Alcotest.failf "accepted malformed spec %S" spec
    | Error _ -> ()
  in
  bad "nonsense";
  bad "p=explode";
  bad "p=sleep:fast";
  bad "p=fail:-3";
  bad "=fail";
  Failpoint.reset ()

(* ---- Deadlines in the engine: mid-build, and determinism ------------------- *)

let profiles_under_test =
  lazy
    (Xsact_workload.Workload.synthetic_profiles ~seed:11 ~results:4
       ~entities:2 ~types_per_entity:4 ~values_per_type:3 ~max_count:5)

(* Every other context-build deadline test hands in a pre-tripped token,
   which make_context's entry check catches. Here the token is live on
   entry: the weight callback runs after that check and before the first
   pair, so cancelling from inside it trips the poll in the pair loop. *)
let test_context_deadline_mid_build () =
  let profiles = Lazy.force profiles_under_test in
  let d = Deadline.create () in
  let weight _ =
    Deadline.cancel d;
    1
  in
  Alcotest.check_raises "cancelled mid-build raises Expired" Deadline.Expired
    (fun () -> ignore (Dod.make_context ~weight ~deadline:d profiles));
  check Alcotest.bool "the callback did cancel" true (Deadline.cancelled d)

let test_generous_deadline_bit_identical () =
  let profiles = Lazy.force profiles_under_test in
  let c = Dod.make_context profiles in
  List.iter
    (fun alg ->
      let base = Algorithm.generate alg c ~limit:6 in
      let generous = Deadline.of_ms 3_600_000. in
      let dfss, outcome =
        Algorithm.generate_within ~deadline:generous alg c ~limit:6
      in
      let name = Algorithm.to_string alg in
      check Alcotest.bool (name ^ " complete") true (outcome = `Complete);
      check Alcotest.bool (name ^ " bit-identical") true (dfss = base))
    Algorithm.practical

let test_tripped_deadline_still_valid () =
  let profiles = Lazy.force profiles_under_test in
  let c = Dod.make_context profiles in
  List.iter
    (fun alg ->
      let d = Deadline.of_ms 0. in
      let dfss, _ = Algorithm.generate_within ~deadline:d alg c ~limit:6 in
      check Alcotest.bool
        (Algorithm.to_string alg ^ " valid under tripped deadline")
        true
        (Array.for_all (fun dfs -> Dfs.is_valid ~limit:6 dfs) dfss))
    Algorithm.practical

let test_pipeline_deadline_paths () =
  let profiles = Lazy.force profiles_under_test in
  (* no deadline vs generous deadline: byte-identical JSON bodies, modulo
     the wall-clock elapsed_s field *)
  let body c =
    Json.to_string
      (Xsact_server.Api.json_of_comparison { c with Pipeline.elapsed_s = 0. })
  in
  let run ?deadline () =
    match
      Pipeline.compare_profiles ?deadline ~keywords:"synthetic" ~size_bound:6
        profiles
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "compare failed: %s" (Error.to_string e)
  in
  let base = run () in
  let timed = run ~deadline:(Deadline.of_ms 3_600_000.) () in
  check Alcotest.bool "not degraded" false timed.Pipeline.degraded;
  check Alcotest.string "byte-identical body" (body base) (body timed);
  (* a pre-tripped deadline is a typed timeout, not a crash *)
  (match
     Pipeline.compare_profiles ~deadline:(Deadline.of_ms 0.)
       ~keywords:"synthetic" ~size_bound:6 profiles
   with
  | Error Error.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected Timeout for a zero deadline"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e));
  (* a deadline tripping mid-generation degrades but still answers: the
     compare.round failpoint stalls the first round past the budget *)
  Failpoint.reset ();
  Failpoint.enable "compare.round" (Failpoint.Sleep 0.5);
  Fun.protect ~finally:Failpoint.reset (fun () ->
      let degraded = run ~deadline:(Deadline.of_ms 200.) () in
      check Alcotest.bool "degraded flagged" true degraded.Pipeline.degraded;
      check Alcotest.bool "degraded DFSs valid" true
        (Array.for_all
           (fun dfs -> Dfs.is_valid ~limit:6 dfs)
           degraded.Pipeline.dfss);
      check Alcotest.bool "degraded in body" true
        (member_exn "degraded" (body degraded) = Json.Bool true))

(* ---- Session store hygiene -------------------------------------------------- *)

let test_session_ttl () =
  let now = ref 0. in
  let store = Session_store.create ~ttl_s:10. ~now:(fun () -> !now) () in
  let id = Session_store.add store "payload" in
  now := 8.;
  check Alcotest.(option string) "alive within ttl" (Some "payload")
    (Session_store.find store id);
  (* the find refreshed the idle clock: 8 + 9 = 17 is still alive *)
  now := 17.;
  check Alcotest.(option string) "find refreshes ttl" (Some "payload")
    (Session_store.find store id);
  now := 28.;
  check Alcotest.(option string) "expired after idle > ttl" None
    (Session_store.find store id);
  check Alcotest.int "count sees it gone" 0 (Session_store.count store);
  check Alcotest.int "expiry counted" 1 (Session_store.expired_total store);
  check Alcotest.int "no lru evictions" 0 (Session_store.evicted_total store)

let test_session_capacity () =
  let now = ref 0. in
  let store = Session_store.create ~capacity:2 ~now:(fun () -> !now) () in
  let a = Session_store.add store "a" in
  now := 1.;
  let b = Session_store.add store "b" in
  now := 2.;
  ignore (Session_store.find store a) (* refresh a: b is now the LRU *);
  now := 3.;
  let c = Session_store.add store "c" in
  check Alcotest.(list string) "lru evicted" [ a; c ] (Session_store.ids store);
  check Alcotest.(option string) "victim gone" None
    (Session_store.find store b);
  check Alcotest.int "eviction counted" 1 (Session_store.evicted_total store);
  check Alcotest.int "capacity held" 2 (Session_store.count store);
  (* a write never brings an evicted session back *)
  Alcotest.check_raises "set does not re-create"
    (Invalid_argument ("Session_store.set: unknown id " ^ b)) (fun () ->
      Session_store.set store b "b2");
  check Alcotest.(list string) "still evicted" [ a; c ] (Session_store.ids store)

(* Eviction order under mixed add/find/set traffic: both [find] and [set]
   count as touches, so the victim is always the session idle longest —
   not the one created earliest. *)
let test_session_recency () =
  let now = ref 0. in
  let evicted = ref [] in
  let on_event = function
    | Session_store.Evicted { id; _ } -> evicted := !evicted @ [ id ]
    | _ -> ()
  in
  let store =
    Session_store.create ~capacity:3 ~now:(fun () -> !now) ~on_event ()
  in
  let a = Session_store.add store "a" in
  now := 1.;
  let b = Session_store.add store "b" in
  now := 2.;
  let c = Session_store.add store "c" in
  now := 3.;
  ignore (Session_store.find store a);
  (* a refreshed by the read *)
  now := 4.;
  Session_store.set store c "c2" (* c refreshed by the write *);
  now := 5.;
  let d = Session_store.add store "d" in
  (* b — created second but idle longest — is the victim, not a *)
  check Alcotest.(list string) "find and set both refresh" [ b ] !evicted;
  check Alcotest.(option string) "victim gone" None
    (Session_store.find store b);
  check Alcotest.(option string) "read-refreshed survivor" (Some "a")
    (Session_store.find store a);
  (* that find just touched a at t=5; c (t=4) is now the LRU *)
  now := 6.;
  let _e = Session_store.add store "e" in
  check Alcotest.(list string) "second victim is c" [ b; c ] !evicted;
  check
    Alcotest.(list string)
    "survivors" (List.sort compare [ a; d; _e ])
    (Session_store.ids store);
  check Alcotest.int "evictions counted" 2 (Session_store.evicted_total store)

(* ---- Server: deadlines, degradation, 504s (no sockets) ----------------------- *)

let compare_body =
  {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":6}|}

let test_handle_deadline_degraded () =
  let t =
    Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4
      ~deadline_ms:200 ()
  in
  let handle ?headers ?meth ?body target =
    Server.handle t (request ?headers ?meth ?body target)
  in
  Failpoint.reset ();
  Failpoint.enable "compare.round" (Failpoint.Sleep 0.5);
  Fun.protect ~finally:Failpoint.reset (fun () ->
      let resp = handle ~meth:"POST" ~body:compare_body "/compare" in
      check Alcotest.int "degraded compare is 200" 200 resp.Http.status;
      (match List.assoc_opt "X-Degraded" resp.Http.resp_headers with
      | Some reasons when String.length reasons > 0 -> ()
      | _ -> Alcotest.fail "missing X-Degraded header");
      check Alcotest.bool "body flags degraded" true
        (member_exn "degraded" resp.Http.resp_body = Json.Bool true);
      (* degraded bodies are never cached: the repeat is a miss again *)
      let again = handle ~meth:"POST" ~body:compare_body "/compare" in
      check Alcotest.(option string) "degraded not cached" (Some "miss")
        (List.assoc_opt "X-Cache" again.Http.resp_headers));
  (* failpoint gone: the same request completes, uncached then cached *)
  let clean = handle ~meth:"POST" ~body:compare_body "/compare" in
  check Alcotest.int "clean compare ok" 200 clean.Http.status;
  check Alcotest.(option string) "clean compare not degraded" None
    (List.assoc_opt "X-Degraded" clean.Http.resp_headers);
  let hit = handle ~meth:"POST" ~body:compare_body "/compare" in
  check Alcotest.(option string) "clean compare cached" (Some "hit")
    (List.assoc_opt "X-Cache" hit.Http.resp_headers);
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.bool "degraded responses counted" true
    (event_count metrics "responses_degraded" >= 2)

let test_handle_deadline_header () =
  (* the header override is clamped by max_deadline_ms: a huge client ask
     still times against the 100ms cap and degrades under the failpoint *)
  let t =
    Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4
      ~max_deadline_ms:100 ()
  in
  let handle ?headers ?meth ?body target =
    Server.handle t (request ?headers ?meth ?body target)
  in
  Failpoint.reset ();
  Failpoint.enable "compare.round" (Failpoint.Sleep 0.4);
  Fun.protect ~finally:Failpoint.reset (fun () ->
      let resp =
        handle
          ~headers:[ ("x-deadline-ms", "3600000") ]
          ~meth:"POST" ~body:compare_body "/compare"
      in
      check Alcotest.int "still 200" 200 resp.Http.status;
      match List.assoc_opt "X-Degraded" resp.Http.resp_headers with
      | Some _ -> ()
      | None -> Alcotest.fail "header override escaped the server cap");
  (* a zero header budget cannot finish anything: typed 504 *)
  let resp =
    handle
      ~headers:[ ("x-deadline-ms", "0") ]
      ~meth:"POST"
      ~body:
        {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":7}|}
      "/compare"
  in
  check Alcotest.int "zero budget is 504" 504 resp.Http.status;
  let metrics = (handle "/metrics").Http.resp_body in
  check Alcotest.bool "timeout counted" true
    (event_count metrics "requests_timed_out" >= 1)

(* ---- End-to-end: disconnects, saturation bursts ------------------------------ *)

(* Stop with a bounded wait so a hang fails the test instead of wedging the
   suite. *)
let stop_bounded running =
  let stopped = ref false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop running;
        stopped := true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not !stopped) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  if not !stopped then Alcotest.fail "stop did not return promptly";
  Thread.join stopper

let test_e2e_disconnect_mid_response () =
  let t = Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4 () in
  let running = Server.start ~threads:2 ~port:0 t in
  let port = Server.port running in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      stop_bounded running)
    (fun () ->
      Failpoint.reset ();
      Failpoint.enable "socket.write" (Failpoint.Fail_n 1);
      (* the injected write failure kills this connection mid-response —
         the client sees a dead socket, the daemon must shrug it off *)
      (match Http.request ~host:"127.0.0.1" ~port "/health" with
      | _ -> Alcotest.fail "first response should have been torn"
      | exception _ -> ());
      check Alcotest.bool "failpoint fired" true
        (Failpoint.hits "socket.write" >= 1);
      Failpoint.reset ();
      let status, _, body = Http.request ~host:"127.0.0.1" ~port "/health" in
      check Alcotest.int "daemon healthy after torn write" 200 status;
      check Alcotest.string "health body" {|{"status":"ok"}|} body)

(* The shed path must not leave its 503 behind in an unclosed channel. A
   forked child sheds onto a socket whose peer is gone, so the write
   fails; then it puts a file on the socket's descriptor number and
   exits. An unclosed channel's leftover bytes would be flushed at exit
   into that file. *)
let test_shed_closes_its_channel () =
  let path = Filename.temp_file "xsact_shed" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Unix.fork () with
      | 0 ->
        let code =
          try
            Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
            let fd, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.close peer;
            Server.shed fd;
            let file = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
            if file <> fd then begin
              Unix.dup2 file fd;
              Unix.close file
            end;
            0
          with _ -> 2
        in
        exit code
      | pid ->
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> Alcotest.fail "child failed");
        check Alcotest.string "nothing flushed into the reused descriptor" ""
          (In_channel.with_open_bin path In_channel.input_all))

(* The peer probe must not leave its request behind in an unclosed
   channel either, nor raise. A forked child probes a listener that never
   reads, with a body larger than the socket buffers hold, so the send
   times out mid-flush; then it puts a file on the descriptor number the
   probe's socket had and exits. *)
let test_probe_closes_its_channels () =
  let path = Filename.temp_file "xsact_probe" ".out" in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lsock;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen lsock 1;
      let port =
        match Unix.getsockname lsock with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
      in
      match Unix.fork () with
      | 0 ->
        let code =
          try
            Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
            (* the probe's socket takes the lowest free descriptor *)
            let next = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
            Unix.close next;
            let code =
              match
                Server.probe_request ~host:"127.0.0.1" ~port
                  ~body:(String.make (16 lsl 20) 'x') "/v1/demote"
              with
              | None -> 0
              | Some _ -> 3
              | exception _ -> 4
            in
            let file = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
            if file <> next then begin
              Unix.dup2 file next;
              Unix.close file
            end;
            code
          with _ -> 2
        in
        exit code
      | pid ->
        let status = snd (Unix.waitpid [] pid) in
        check Alcotest.int "nothing flushed into the reused descriptor" 0
          (String.length (In_channel.with_open_bin path In_channel.input_all));
        match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED 4 -> Alcotest.fail "the probe raised"
        | _ -> Alcotest.fail "child failed")

let test_e2e_saturation_burst () =
  (* the acceptance drill: 2 workers, admission bound 4, 50ms deadlines,
     slow computations, 16 concurrent cold compares — every client gets a
     definitive answer, the daemon then serves normally and stops fast *)
  let t =
    Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:32
      ~deadline_ms:50 ()
  in
  let running = Server.start ~threads:2 ~max_pending:4 ~port:0 t in
  let port = Server.port running in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      stop_bounded running)
    (fun () ->
      Failpoint.reset ();
      Failpoint.enable "compare.round" (Failpoint.Sleep 0.2);
      let n = 16 in
      let results = Array.make n (0, [], "") in
      let clients =
        List.init n (fun i ->
            Thread.create
              (fun i ->
                let body =
                  Printf.sprintf
                    {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":%d}|}
                    (4 + i)
                in
                results.(i) <-
                  (try Http.request ~host:"127.0.0.1" ~port ~body "/compare"
                   with e ->
                     (-1, [], Printexc.to_string e)))
              i)
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i (status, headers, body) ->
          (match status with
          | 200 | 503 | 504 -> ()
          | s ->
            Alcotest.failf "client %d: non-definitive outcome %d (%s)" i s
              body);
          if status = 503 then
            check
              Alcotest.(option string)
              (Printf.sprintf "client %d shed with Retry-After" i)
              (Some "1")
              (List.assoc_opt "retry-after" headers);
          if status = 200 then
            match List.assoc_opt "x-degraded" headers with
            | Some _ -> ()
            | None ->
              Alcotest.failf
                "client %d: 200 without X-Degraded despite slow rounds" i)
        results;
      Failpoint.reset ();
      (* every client got an answer; overload events were recorded *)
      let _, _, metrics = Http.request ~host:"127.0.0.1" ~port "/metrics" in
      let shed = event_count metrics "requests_shed" in
      let timed_out = event_count metrics "requests_timed_out" in
      let degraded = event_count metrics "responses_degraded" in
      if shed + timed_out = 0 then
        Alcotest.failf "no overload events (shed=%d timed_out=%d)" shed
          timed_out;
      check Alcotest.bool "some responses degraded" true (degraded >= 1);
      (match member_exn "queue_pending" metrics with
      | Json.Int q when q >= 0 -> ()
      | v -> Alcotest.failf "bad queue_pending %s" (Json.to_string v));
      (* the daemon is not wedged: health and a fresh compare both work *)
      let status, _, _ = Http.request ~host:"127.0.0.1" ~port "/health" in
      check Alcotest.int "health after burst" 200 status;
      let status, _, _ =
        Http.request ~host:"127.0.0.1" ~port
          ~body:
            {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":23}|}
          "/compare"
      in
      check Alcotest.int "fresh compare after burst" 200 status)

let () =
  Alcotest.run "xsact_faults"
    [
      ("deadline", [ Alcotest.test_case "basics" `Quick test_deadline_basics ]);
      ( "failpoint",
        [
          Alcotest.test_case "actions" `Quick test_failpoint_actions;
          Alcotest.test_case "configure" `Quick test_failpoint_configure;
        ] );
      ( "context",
        [
          Alcotest.test_case "deadline trips mid-build" `Quick
            test_context_deadline_mid_build;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "generous deadline is bit-identical" `Quick
            test_generous_deadline_bit_identical;
          Alcotest.test_case "tripped deadline stays valid" `Quick
            test_tripped_deadline_still_valid;
          Alcotest.test_case "pipeline deadline paths" `Quick
            test_pipeline_deadline_paths;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "ttl expiry" `Quick test_session_ttl;
          Alcotest.test_case "lru capacity" `Quick test_session_capacity;
          Alcotest.test_case "lru recency under mixed traffic" `Quick
            test_session_recency;
        ] );
      ( "server",
        [
          Alcotest.test_case "deadline degrades, never cached" `Quick
            test_handle_deadline_degraded;
          Alcotest.test_case "header override and 504" `Quick
            test_handle_deadline_header;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "mid-response disconnect" `Quick
            test_e2e_disconnect_mid_response;
          Alcotest.test_case "saturation burst" `Quick
            test_e2e_saturation_burst;
          Alcotest.test_case "shed closes its channel" `Quick
            test_shed_closes_its_channel;
          Alcotest.test_case "probe closes its channels" `Quick
            test_probe_closes_its_channels;
        ] );
    ]
