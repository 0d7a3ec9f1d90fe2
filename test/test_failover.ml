(* Warm failover tests, bottom-up: the offset-addressed journal tailer and
   its record-size cap, a session resumed from its journaled DFSs — and
   the acceptance harnesses at the top of the stack: a real
   primary/follower pair of xsact-serve children driven over HTTP, the
   primary killed with SIGKILL mid-mutation, the follower promoted and
   required to serve every acked session byte-identically; plus
   clean-shutdown stop-drain, restarts that serve every session as
   acknowledged, cross-restart intern rewarming, self-promotion on loss
   of the primary, and replay-divergence detection + healing. *)

module Journal = Xsact_persist.Journal
module Failpoint = Xsact_util.Failpoint
module Http = Xsact_server.Http
module Json = Xsact_server.Json
module Server = Xsact_server.Server

let check = Alcotest.check

let member_exn name body =
  match Json.of_string body with
  | Ok j -> (
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "no field %S in %s" name body)
  | Error e -> Alcotest.failf "bad response JSON %s: %s" body e

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xsact_failover_%d_%d" (Unix.getpid ()) !counter)
    in
    let _ = Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)) in
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> -1

(* ---- Journal tailer: offset-addressed reads ------------------------------- *)

let test_tailer () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "j" in
  let j = Journal.open_append ~fsync:Journal.Never path in
  List.iter (Journal.append j) [ "alpha"; "beta" ];
  Journal.close j;
  let r = Journal.read_from ~offset:0 path in
  check Alcotest.(list string) "both records" [ "alpha"; "beta" ] r.Journal.records;
  check Alcotest.bool "clean tail" false r.Journal.torn;
  check Alcotest.int "cursor arithmetic"
    ((2 * Journal.header_bytes) + String.length "alpha" + String.length "beta")
    r.Journal.next_offset;
  check Alcotest.int "cursor = file size" (file_size path) r.Journal.next_offset;
  (* resume from the cursor: only what was appended since *)
  let j = Journal.open_append ~fsync:Journal.Never path in
  Journal.append j "gamma";
  Journal.close j;
  let r2 = Journal.read_from ~offset:r.Journal.next_offset path in
  check Alcotest.(list string) "resumed read" [ "gamma" ] r2.Journal.records;
  (* a mid-append tail (header promises more than is there) is NOT torn:
     the tailer must poll again from the same cursor, not resync *)
  let full = read_file path in
  write_file path (full ^ "\x0a\x00\x00\x00\x00\x00\x00\x00par");
  let r3 = Journal.read_from ~offset:r2.Journal.next_offset path in
  check Alcotest.(list string) "incomplete: nothing yet" [] r3.Journal.records;
  check Alcotest.bool "incomplete: not torn" false r3.Journal.torn;
  check Alcotest.int "incomplete: cursor parked" r2.Journal.next_offset
    r3.Journal.next_offset;
  (* a complete record with a bad CRC IS torn: the primary must resync *)
  let buf = Buffer.create 32 in
  Journal.add_record buf "delta";
  let bad = Bytes.of_string (Buffer.contents buf) in
  Bytes.set bad 4 (Char.chr (Char.code (Bytes.get bad 4) lxor 1));
  write_file path (full ^ Bytes.to_string bad);
  let r4 = Journal.read_from ~offset:r2.Journal.next_offset path in
  check Alcotest.bool "bad CRC: torn" true r4.Journal.torn;
  check Alcotest.(list string) "bad CRC: nothing served" [] r4.Journal.records;
  (* a missing file reads as empty, cursor 0 *)
  let r5 = Journal.read_from ~offset:0 (Filename.concat dir "nope") in
  check Alcotest.(list string) "missing = empty" [] r5.Journal.records;
  check Alcotest.bool "missing: not torn" false r5.Journal.torn

(* The read-side record-size cap: a corrupt length prefix larger than the
   cap is a torn tail, never an allocation attempt. *)
let test_record_cap () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "j" in
  let j = Journal.open_append ~fsync:Journal.Never path in
  List.iter (Journal.append j) [ "ok1"; "ok2" ];
  Journal.close j;
  let good = read_file path in
  (* forge a header claiming a payload just past the default cap — small
     enough to be "plausible" to the 64 MiB write-side sanity bound, so
     only the read-side cap stands between the parser and the allocation *)
  let header = Bytes.create Journal.header_bytes in
  Bytes.set_int32_le header 0
    (Int32.of_int (Journal.default_max_record_bytes + 1));
  Bytes.set_int32_le header 4 0l;
  write_file path (good ^ Bytes.to_string header ^ String.make 64 'x');
  let r = Journal.read_from ~offset:0 path in
  check Alcotest.(list string) "good prefix survives" [ "ok1"; "ok2" ]
    r.Journal.records;
  check Alcotest.bool "forged length = torn" true r.Journal.torn;
  check Alcotest.int "cursor stops before the forgery" (String.length good)
    r.Journal.next_offset;
  (* the cap is configurable: a record the default happily reads is torn
     under a smaller cap *)
  let r = Journal.read_from ~max_record_bytes:2 ~offset:0 path in
  check Alcotest.(list string) "small cap rejects 3-byte payloads" []
    r.Journal.records;
  check Alcotest.bool "small cap: torn" true r.Journal.torn;
  (* the batch reader honors the same cap *)
  let r = Journal.read ~repair:false path in
  check Alcotest.(list string) "batch read: good prefix" [ "ok1"; "ok2" ]
    r.Journal.payloads;
  check Alcotest.int "batch read: forgery counted" 1 r.Journal.truncated_records

(* A session resumed from the q-vectors it served — its context rebuilt
   from freshly scanned profiles, its DFSs restored, as the first touch
   after a restart does — that then adds a result the corpus scan just
   extracted equals a fresh build over the same results, and serves what
   the live session it resumes serves after the same add. *)
let test_warm_session_adds_scanned () =
  let pipeline =
    Pipeline.create (Xsact_dataset.Dataset.product_reviews ()).document
  in
  let scan () =
    Pipeline.search pipeline "gps"
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (Pipeline.profile_of pipeline)
    |> Array.of_list
  in
  let scanned = scan () in
  let first = Array.sub scanned 0 3 and fourth = scanned.(3) in
  let live =
    Result.get_ok (Session.create ~size_bound:8 (Array.to_list first))
  in
  (* the restart's side: profiles scanned again, the context built anew *)
  let context = Dod.make_context (Array.sub (scan ()) 0 3) in
  let profiles = Dod.results context in
  let resumed =
    Result.get_ok
      (Session.restore ~runs:(Session.stats live) ~config:Config.default
         ~size_bound:8 ~context
         ~dfss:
           (Array.mapi
              (fun i d -> Dfs.of_q_array profiles.(i) (Dfs.to_q_array d))
              (Session.dfss live))
         ())
  in
  let added = Result.get_ok (Session.apply resumed [ Session.Add fourth ]) in
  let live_added = Result.get_ok (Session.apply live [ Session.Add fourth ]) in
  let fresh =
    Result.get_ok
      (Session.create ~size_bound:8
         (Array.to_list (Array.append profiles [| fourth |])))
  in
  check Alcotest.bool "context equals a fresh build" true
    (Dod.equal_context (Session.context added) (Session.context fresh));
  check Alcotest.string "same serialized context"
    (Dod.serialize_context (Session.context fresh))
    (Dod.serialize_context (Session.context added));
  check Alcotest.int "same DoD as a fresh build" (Session.dod fresh)
    (Session.dod added);
  check
    Alcotest.(list (list int))
    "same DFSs as the live session"
    (Array.to_list
       (Array.map (fun d -> Array.to_list (Dfs.to_q_array d))
          (Session.dfss live_added)))
    (Array.to_list
       (Array.map (fun d -> Array.to_list (Dfs.to_q_array d))
          (Session.dfss added)));
  check Alcotest.int "same runs as the live session" (Session.stats live_added)
    (Session.stats added)

(* ---- The child harness ---------------------------------------------------- *)

let serve_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "xsact_serve.exe"

type child = { pid : int; port : int; out_fd : Unix.file_descr }

(* Start a real xsact-serve child and parse its port off stdout. [env_extra]
   arms failpoints in the child only (XSACT_FAILPOINTS=...); [port] pins
   the listen port (0, the default, picks an ephemeral one). *)
let start_child ?(env_extra = []) ?(port = 0) ~state_dir args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let argv =
    Array.of_list
      ([ serve_exe; "--port"; string_of_int port; "--dataset";
         "product-reviews"; "--state-dir"; state_dir ]
      @ args)
  in
  let env = Array.append (Unix.environment ()) (Array.of_list env_extra) in
  let pid =
    Unix.create_process_env serve_exe argv env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let parse_port s =
    let marker = "http://127.0.0.1:" in
    let mlen = String.length marker in
    let rec find i =
      if i + mlen > String.length s then None
      else if String.sub s i mlen = marker then Some (i + mlen)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length s
        && match s.[!stop] with '0' .. '9' -> true | _ -> false
      do
        incr stop
      done;
      if !stop > start then
        int_of_string_opt (String.sub s start (!stop - start))
      else None
  in
  let buf = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 30. in
  let got = ref None in
  let chunk = Bytes.create 4096 in
  while !got = None && Unix.gettimeofday () < deadline do
    match Unix.select [ out_r ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ ->
      let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
      if n = 0 then (
        Unix.kill pid Sys.sigkill;
        Alcotest.failf "child exited before listening: %s"
          (Buffer.contents buf))
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        got := parse_port (Buffer.contents buf)
      end
  done;
  match !got with
  | None ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Alcotest.failf "no listening line from child: %s" (Buffer.contents buf)
  | Some port -> { pid; port; out_fd = out_r }

let wait_ready child =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    let ready =
      match Http.request ~host:"127.0.0.1" ~port:child.port "/ready" with
      | 200, _, _ -> true
      | _ -> false
      | exception (Unix.Unix_error _ | Failure _) -> false
    in
    if ready then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "child never became ready"
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let kill9 child =
  Unix.kill child.pid Sys.sigkill;
  ignore (Unix.waitpid [] child.pid);
  (try Unix.close child.out_fd with Unix.Unix_error _ -> ())

(* Clean shutdown: SIGTERM and wait for the exit — the stop-drain path
   (journal flush, final snapshot) runs to completion. *)
let stop_clean child =
  Unix.kill child.pid Sys.sigterm;
  ignore (Unix.waitpid [] child.pid);
  (try Unix.close child.out_fd with Unix.Unix_error _ -> ())

let http child ?meth ?body target =
  Http.request ~host:"127.0.0.1" ~port:child.port ?meth ?body target

let wait_for ?(timeout = 10.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let create_body = {|{"dataset":"product-reviews","q":"gps","top":3}|}

let create_session child =
  let status, _, body = http child ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "create acked" 201 status;
  match member_exn "id" body with
  | Json.String id -> id
  | v -> Alcotest.failf "session id: %s" (Json.to_string v)

let resize_session child id size_bound =
  let status, _, _ =
    http child ~meth:"POST"
      ~body:(Printf.sprintf {|{"size_bound":%d}|} size_bound)
      ("/session/" ^ id ^ "/size")
  in
  check Alcotest.int "resize acked" 200 status

let session_body child id =
  let status, _, body = http child ("/session/" ^ id) in
  check Alcotest.int (id ^ " served") 200 status;
  body

let session_status child id =
  match http child ("/session/" ^ id) with
  | status, _, _ -> status
  | exception (Unix.Unix_error _ | Failure _) -> -1

(* A /compare body minus its wall-clock [elapsed_s] field — everything
   else must be byte-identical across servers and restarts. *)
let compare_body child =
  let status, _, body = http child ~meth:"POST" ~body:create_body "/compare" in
  check Alcotest.int "/compare 200" 200 status;
  match Json.of_string body with
  | Ok (Json.Obj fields) ->
    Json.to_string
      (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
  | Ok _ | Error _ -> Alcotest.failf "bad /compare body: %s" body

let assert_sessions child expected =
  List.iter
    (fun (id, size_bound, ranks) ->
      let body = session_body child id in
      (match member_exn "size_bound" body with
      | Json.Int n -> check Alcotest.int (id ^ " size_bound") size_bound n
      | v -> Alcotest.failf "%s size_bound: %s" id (Json.to_string v));
      match member_exn "ranks" body with
      | Json.List vs ->
        check
          Alcotest.(list int)
          (id ^ " ranks") ranks
          (List.filter_map Json.to_int vs)
      | v -> Alcotest.failf "%s ranks: %s" id (Json.to_string v))
    expected

(* Fire one request and deliberately never read the response, so the op is
   sent but not acknowledged; returns the open socket so it outlives the
   child being killed while parked on a failpoint mid-mutation. *)
let send_unacked child body target =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, child.port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock addr;
  let oc = Unix.out_channel_of_descr sock in
  Http.send_request oc ~host:"127.0.0.1" ~meth:"POST" ~body target;
  sock

(* /ready and /metrics field access *)

let ready_field child name =
  let _, _, body = http child "/ready" in
  member_exn name body

let ready_str child name =
  match ready_field child name with
  | Json.String s -> s
  | v -> Alcotest.failf "/ready %s: %s" name (Json.to_string v)

let ready_int child name =
  match ready_field child name with
  | Json.Int n -> n
  | v -> Alcotest.failf "/ready %s: %s" name (Json.to_string v)

let ready_bool child name =
  match ready_field child name with
  | Json.Bool b -> b
  | v -> Alcotest.failf "/ready %s: %s" name (Json.to_string v)

let metric_int child name =
  let _, _, metrics = http child "/metrics" in
  match member_exn name metrics with
  | Json.Int n -> n
  | v -> Alcotest.failf "metrics %s: %s" name (Json.to_string v)

let metric_obj_int child obj name =
  let _, _, metrics = http child "/metrics" in
  match member_exn obj metrics with
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some (Json.Int n) -> n
    | v ->
      Alcotest.failf "metrics %s.%s: %s" obj name
        (match v with Some v -> Json.to_string v | None -> "missing"))
  | v -> Alcotest.failf "metrics %s: %s" obj (Json.to_string v)

let repl_int child name = metric_obj_int child "replication" name
let intern_int child name = metric_obj_int child "context_intern" name
let durability_int child name = metric_obj_int child "durability" name

(* ---- Satellite 3: stop-drain flush ---------------------------------------- *)

(* A clean SIGTERM under a long fsync interval must flush the journal
   before the final snapshot starts — park that snapshot's rename and
   SIGKILL the child there: everything acked before the stop recovers
   byte-identically even though the interval never elapsed and the final
   checkpoint died half-written. *)
let test_stop_drain () =
  let dir = fresh_dir () in
  let c1 =
    start_child ~state_dir:dir
      ~env_extra:[ "XSACT_FAILPOINTS=persist.snapshot.rename=sleep:600" ]
      [ "--fsync"; "interval:600" ]
  in
  wait_ready c1;
  let s1 = create_session c1 in
  let s2 = create_session c1 in
  resize_session c1 s1 6;
  (* both recover byte-identically, the resized s1 with its warm-started
     DFSs and its run count *)
  let b1 = session_body c1 s1 in
  let b2 = session_body c1 s2 in
  Unix.kill c1.pid Sys.sigterm;
  wait_for "stop-drain to park on the final snapshot" (fun () ->
      Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  kill9 c1;
  let c2 = start_child ~state_dir:dir [] in
  wait_ready c2;
  check Alcotest.bool "aborted final checkpoint discarded" false
    (Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  check Alcotest.int "no torn records" 0
    (durability_int c2 "recovery_truncated_records");
  assert_sessions c2 [ (s1, 6, [ 1; 2; 3 ]); (s2, 8, [ 1; 2; 3 ]) ];
  check Alcotest.string "s1 byte-identical" b1 (session_body c2 s1);
  check Alcotest.string "s2 byte-identical" b2 (session_body c2 s2);
  kill9 c2

(* ---- Satellite 4: intern-table rewarm across restart ----------------------- *)

let test_intern_rewarm () =
  let dir = fresh_dir () in
  let c1 = start_child ~state_dir:dir [] in
  wait_ready c1;
  let ids = List.init 4 (fun _ -> create_session c1) in
  kill9 c1;
  (* the restart restores every session cold, then the k first touches
     over one corpus share one physical context build through the intern
     table *)
  let c2 = start_child ~state_dir:dir [] in
  wait_ready c2;
  check Alcotest.int "cold boot: nothing built yet" 0
    (metric_int c2 "context_builds_full");
  check Alcotest.int "cold boot: all sessions cold" 4
    (metric_int c2 "sessions_cold");
  List.iter (fun id -> ignore (session_body c2 id)) ids;
  check Alcotest.int "one physical build for k sessions" 1
    (metric_int c2 "context_builds_full");
  check Alcotest.int "the rest acquired from the intern table" 3
    (metric_int c2 "context_builds_reused");
  check Alcotest.int "k sessions pin one context" 4 (intern_int c2 "refs");
  check Alcotest.int "one interned entry" 1 (intern_int c2 "entries");
  check Alcotest.int "all warm" 4 (metric_int c2 "sessions_warm");
  kill9 c2

(* ---- Restarts serve what was acknowledged ---------------------------------- *)

(* A clean stop compacts the journal into its snapshot; the restart, and a
   crash restart after it, bring every session back cold and serve each
   byte-identically on its first touch — the resized one with the
   warm-started DFSs and run count it was acknowledged with. *)
let test_warm_boot () =
  let dir = fresh_dir () in
  let c1 = start_child ~state_dir:dir [] in
  wait_ready c1;
  let s1 = create_session c1 in
  let s2 = create_session c1 in
  resize_session c1 s2 6;
  let b1 = session_body c1 s1 in
  let b2 = session_body c1 s2 in
  stop_clean c1;
  let c2 = start_child ~state_dir:dir [] in
  wait_ready c2;
  check Alcotest.int "cold at boot, before any touch" 0
    (metric_int c2 "sessions_warm");
  check Alcotest.int "nothing built at boot" 0
    (metric_int c2 "context_builds_full");
  check Alcotest.string "s1 byte-identical after a clean stop" b1
    (session_body c2 s1);
  check Alcotest.string "s2 byte-identical after a clean stop" b2
    (session_body c2 s2);
  check Alcotest.int "one physical build for both" 1
    (metric_int c2 "context_builds_full");
  kill9 c2;
  let c3 = start_child ~state_dir:dir [] in
  wait_ready c3;
  check Alcotest.string "s2 byte-identical after a crash" b2
    (session_body c3 s2);
  check Alcotest.string "s1 byte-identical after a crash" b1
    (session_body c3 s1);
  assert_sessions c3 [ (s1, 8, [ 1; 2; 3 ]); (s2, 6, [ 1; 2; 3 ]) ];
  kill9 c3

(* ---- The failover harness ------------------------------------------------- *)

let test_failover () =
  let dir_p = fresh_dir () in
  let dir_f = fresh_dir () in
  let p1 = start_child ~state_dir:dir_p [ "--fsync"; "always" ] in
  wait_ready p1;
  let s1 = create_session p1 in
  let s2 = create_session p1 in
  resize_session p1 s1 6;
  (* the follower cold-connects and receives everything as a resync *)
  let f =
    start_child ~state_dir:dir_f
      [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" p1.port ]
  in
  wait_ready f;
  check Alcotest.string "follower role in /ready" "follower"
    (ready_str f "role");
  wait_for "follower to catch up" (fun () ->
      ready_bool f "connected"
      && ready_int f "lag_records" = 0
      && session_status f s2 = 200);
  (* a record created after the connect streams live *)
  let s3 = create_session p1 in
  wait_for "live record to replicate" (fun () -> session_status f s3 = 200);
  (* the follower refuses mutations, pointing at the primary *)
  let status, _, body = http f ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "mutations 503 on the follower" 503 status;
  (match member_exn "error" body with
  | Json.Obj fields ->
    (match List.assoc_opt "code" fields with
    | Some (Json.String "follower") -> ()
    | v ->
      Alcotest.failf "error code: %s"
        (match v with Some v -> Json.to_string v | None -> "missing"));
    (match List.assoc_opt "message" fields with
    | Some (Json.String m) ->
      check Alcotest.bool "hint names the primary" true
        (let sub = "127.0.0.1" in
         let rec has i =
           i + String.length sub <= String.length m
           && (String.sub m i (String.length sub) = sub || has (i + 1))
         in
         has 0)
    | _ -> Alcotest.fail "no error message")
  | v -> Alcotest.failf "error envelope: %s" (Json.to_string v));
  (* read-only /compare is served on the follower, byte-identical modulo
     the wall-clock elapsed_s field *)
  let cmp_f = compare_body f in
  let cmp_p = compare_body p1 in
  check Alcotest.string "follower /compare byte-identical" cmp_p cmp_f;
  (* the acked truth: every session as the primary served it *)
  let pre = List.map (fun id -> (id, session_body p1 id)) [ s1; s2; s3 ] in
  (* restart the primary on its port with a parked torn-append failpoint:
     the follower resyncs to the new incarnation, then the primary is
     SIGKILLed mid-mutation — the op was never acked and its record is
     torn, so it must die with the primary *)
  let port = p1.port in
  kill9 p1;
  let p2 =
    start_child ~state_dir:dir_p ~port
      ~env_extra:[ "XSACT_FAILPOINTS=persist.append.tear=sleep:600" ]
      [ "--fsync"; "always" ]
  in
  wait_ready p2;
  wait_for "follower to resync to the new primary" (fun () ->
      ready_bool f "connected" && ready_int f "lag_records" = 0);
  List.iter
    (fun (id, b) ->
      check Alcotest.string (id ^ " byte-identical after the restart") b
        (session_body p2 id))
    pre;
  let before = file_size (Filename.concat dir_p "journal") in
  let sock =
    send_unacked p2 {|{"size_bound":9}|} ("/session/" ^ s2 ^ "/size")
  in
  wait_for "torn header to land" (fun () ->
      file_size (Filename.concat dir_p "journal") >= before + 8);
  kill9 p2;
  Unix.close sock;
  (* the follower sees the primary die yet keeps serving reads *)
  wait_for "follower to notice the dead primary" (fun () ->
      not (ready_bool f "connected"));
  List.iter
    (fun (id, b) ->
      check Alcotest.string (id ^ " still served follower-side") b
        (session_body f id))
    pre;
  (* promote: the follower flips to primary and accepts writes *)
  let status, _, body = http f ~meth:"POST" "/v1/promote" in
  check Alcotest.int "promote 200" 200 status;
  (match member_exn "promoted" body with
  | Json.Bool true -> ()
  | v -> Alcotest.failf "promoted: %s" (Json.to_string v));
  check Alcotest.string "role flipped" "primary" (ready_str f "role");
  check Alcotest.bool "promotion counted" true (repl_int f "promotions" >= 1);
  (* every acked session serves byte-identically after failover *)
  List.iter
    (fun (id, b) ->
      check Alcotest.string (id ^ " byte-identical after failover") b
        (session_body f id))
    pre;
  check Alcotest.string "/compare byte-identical after failover" cmp_p
    (compare_body f);
  (* the torn, unacked resize died with the primary *)
  (match member_exn "size_bound" (session_body f s2) with
  | Json.Int 8 -> ()
  | v -> Alcotest.failf "unacked resize leaked: %s" (Json.to_string v));
  (* mutations now accepted; the id sequence continues without reuse *)
  resize_session f s2 9;
  let s4 = create_session f in
  check Alcotest.string "id sequence continues" "s4" s4;
  (* a second promote is an idempotent no-op *)
  let status, _, body = http f ~meth:"POST" "/v1/promote" in
  check Alcotest.int "re-promote 200" 200 status;
  (match member_exn "promoted" body with
  | Json.Bool false -> ()
  | v -> Alcotest.failf "re-promote: %s" (Json.to_string v));
  (* the promoted follower's directory was a valid recovery image all
     along: kill -9 and recover everything from it *)
  kill9 f;
  let f2 = start_child ~state_dir:dir_f [] in
  wait_ready f2;
  assert_sessions f2
    [ (s1, 6, [ 1; 2; 3 ]); (s2, 9, [ 1; 2; 3 ]);
      (s3, 8, [ 1; 2; 3 ]); (s4, 8, [ 1; 2; 3 ]) ];
  kill9 f2

(* ---- The acknowledged table survives a crash and replication -------------- *)

(* gps, top 4, created at bound 7 and resized to 5, serves DoD 23: its
   DFSs are a warm-started fixpoint that a fresh create at bound 5 (DoD
   11) does not reach. A second server recovering the same directory
   while the first still runs — a crash restart — and a live follower,
   over its resync and over a streamed record, all serve the
   acknowledged body. In process: [Server.handle] drives both sides. *)
let test_resized_survives_crash_and_follower () =
  let datasets = [ "product-reviews" ] in
  let call ?(meth = "GET") ?(body = "") t target =
    let path, query = Http.split_target target in
    Server.handle t { Http.meth; target; path; query; headers = []; body }
  in
  let resized_session t =
    let created =
      call ~meth:"POST"
        ~body:{|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":7}|}
        t "/session"
    in
    check Alcotest.int "created" 201 created.Http.status;
    let id =
      match member_exn "id" created.Http.resp_body with
      | Json.String id -> id
      | v -> Alcotest.failf "session id: %s" (Json.to_string v)
    in
    check Alcotest.int "resized" 200
      (call ~meth:"POST" ~body:{|{"size_bound":5}|} t ("/session/" ^ id ^ "/size"))
        .Http.status;
    let body = (call t ("/session/" ^ id)).Http.resp_body in
    (match member_exn "dod" body with
    | Json.Int n -> check Alcotest.int "acked at the warm-started DoD" 23 n
    | v -> Alcotest.failf "dod: %s" (Json.to_string v));
    (id, body)
  in
  let serves t (id, body) =
    match call t ("/session/" ^ id) with
    | { Http.status = 200; resp_body; _ } -> resp_body = body
    | _ -> false
  in
  let dir_p = fresh_dir () in
  let p = Server.create ~datasets ~state_dir:dir_p () in
  Server.recover p;
  let p_running = Server.start ~threads:2 ~port:0 p in
  Fun.protect
    ~finally:(fun () -> Server.stop p_running)
    (fun () ->
      let first = resized_session p in
      let crashed = Server.create ~datasets ~state_dir:dir_p () in
      Server.recover crashed;
      check Alcotest.bool "byte-identical after a crash restart" true
        (serves crashed first);
      let f =
        Server.create ~datasets ~state_dir:(fresh_dir ())
          ~replica_of:("127.0.0.1", Server.port p_running)
          ()
      in
      let f_running = Server.start ~threads:1 ~port:0 f in
      Fun.protect
        ~finally:(fun () -> Server.stop f_running)
        (fun () ->
          Server.recover f;
          wait_for "the resync to serve it" (fun () -> serves f first);
          let second = resized_session p in
          wait_for "the streamed record to serve it" (fun () ->
              serves f second)))

(* ---- Auto-takeover on loss of the primary ---------------------------------- *)

let test_auto_takeover () =
  let dir_p = fresh_dir () in
  let dir_f = fresh_dir () in
  let p = start_child ~state_dir:dir_p [] in
  wait_ready p;
  let s1 = create_session p in
  let f =
    start_child ~state_dir:dir_f
      [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" p.port;
        "--takeover-after"; "0.75" ]
  in
  wait_ready f;
  wait_for "follower to catch up" (fun () ->
      ready_bool f "connected" && session_status f s1 = 200);
  kill9 p;
  wait_for ~timeout:20. "self-promotion" (fun () ->
      ready_str f "role" = "primary");
  (* promoted: mutations accepted, state intact *)
  resize_session f s1 7;
  assert_sessions f [ (s1, 7, [ 1; 2; 3 ]) ];
  kill9 f

(* ---- Replay divergence: detected, counted, healed --------------------------- *)

let test_divergence () =
  let dir_p = fresh_dir () in
  let dir_f = fresh_dir () in
  let p = start_child ~state_dir:dir_p [] in
  wait_ready p;
  let s1 = create_session p in
  (* the follower swallows its first streamed record (the failpoint fires
     once), silently diverging from the primary *)
  let f =
    start_child ~state_dir:dir_f
      ~env_extra:[ "XSACT_FAILPOINTS=repl.apply.corrupt=fail:1" ]
      [ "--replica-of"; Printf.sprintf "127.0.0.1:%d" p.port ]
  in
  wait_ready f;
  wait_for "resync to land" (fun () -> session_status f s1 = 200);
  let s2 = create_session p in
  (* the digest in the next heartbeat disagrees while the follower believes
     itself caught up: divergence is counted and a resync heals it *)
  wait_for ~timeout:20. "divergence detection" (fun () ->
      repl_int f "divergences" >= 1);
  wait_for ~timeout:20. "the healing resync" (fun () ->
      session_status f s2 = 200);
  check Alcotest.bool "healed via a second resync" true
    (repl_int f "resyncs" >= 2);
  check Alcotest.string "byte-identical after healing" (session_body p s2)
    (session_body f s2);
  kill9 p;
  kill9 f

(* ---- The follower against a fake primary ----------------------------------

   A listening socket in the test answers the real follower's GET with
   bytes the test chooses: the follower must drop a peer that claims an
   oversized frame, never ends its status line or never ends a resync
   before it allocates what the peer asked for, and must hand [reset] a
   resync's frames byte-for-byte. *)

module Replication = Xsact_server.Replication
module Durability = Xsact_server.Durability

let stream_head =
  "HTTP/1.1 200 OK\r\nContent-Type: application/x-xsact-frames\r\n\
   Connection: close\r\n\r\n"

(* One message of the replication stream: a kind byte, then a frame. *)
let message kind payload =
  let b = Buffer.create (String.length payload + 9) in
  Buffer.add_char b kind;
  Journal.add_record b payload;
  Buffer.contents b

(* [Unix.write_substring] writes it all or raises. *)
let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Words allocated so far, minor and major. *)
let words () =
  let _, _, major = Gc.counters () in
  Gc.minor_words () +. major

(* Block until the peer closes [fd] (true), or the read timeout (false). *)
let peer_closed fd =
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> true
    | _ -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  in
  go ()

let recover_durability () =
  fst
    (Durability.recover ~dir:(fresh_dir ()) ~fsync:Journal.Never
       ~snapshot_every:0)

(* Start the real follower against a listening socket; [serve client fd]
   gets the first connection once the follower's GET is read. *)
let with_fake_primary ?(reset = fun ~payloads:_ -> ()) serve =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  Unix.setsockopt_float lsock Unix.SO_RCVTIMEO 10.;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "no port"
  in
  let c =
    Replication.start_client ~primary:("127.0.0.1", port)
      ~durability:(recover_durability ())
      ~my_epoch:(fun () -> 0)
      ~on_epoch:(fun _ _ -> true)
      ~apply:(fun _ -> ())
      ~reset ()
  in
  Fun.protect
    ~finally:(fun () ->
      Replication.stop_client c;
      Unix.close lsock)
    (fun () ->
      let fd, _ = Unix.accept lsock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          (match Http.read_request (Unix.in_channel_of_descr fd) with
          | Ok req ->
            check Alcotest.string "the follower subscribes" "GET"
              req.Http.meth
          | Error _ -> Alcotest.fail "no request from the follower");
          serve c fd))

let test_wire_over_cap () =
  with_fake_primary (fun c fd ->
      let claimed = Journal.default_max_record_bytes + 1 in
      let hdr = Bytes.create Journal.header_bytes in
      Bytes.set_int32_le hdr 0 (Int32.of_int claimed);
      Bytes.set_int32_le hdr 4 0l;
      let bytes = stream_head ^ "S" ^ Bytes.to_string hdr ^ String.make 4096 'x' in
      let w0 = words () in
      write_all fd bytes;
      check Alcotest.bool "the follower drops the connection" true
        (peer_closed fd);
      let allocated = words () -. w0 in
      check Alcotest.int "no resync" 0 (Replication.resyncs c);
      (* the claim is about 2 M words *)
      if allocated > float_of_int claimed /. 8. /. 64. then
        Alcotest.failf "allocated %.0f words against a %d-byte claim"
          allocated claimed)

let test_wire_endless_status () =
  with_fake_primary (fun c fd ->
      let line = String.make (1 lsl 20) 'H' in
      let w0 = words () in
      (* once the follower gives up, the rest of the write may fail *)
      (try write_all fd line with Unix.Unix_error _ -> ());
      check Alcotest.bool "the follower drops the connection" true
        (peer_closed fd);
      let allocated = words () -. w0 in
      check Alcotest.bool "never connected" false (Replication.connected c);
      (* one 8 KiB line bound, not the 128 K words of the line *)
      if allocated > float_of_int (String.length line) /. 8. /. 8. then
        Alcotest.failf "allocated %.0f words reading a %d-byte status line"
          allocated (String.length line))

let resync_header payloads =
  Json.to_string
    (Json.Obj
       [ ("boot", Json.String "b0"); ("gen", Json.Int 0); ("epoch", Json.Int 0);
         ("offset", Json.Int 0); ("records", Json.Int 0); ("digest", Json.Int 0);
         ("payloads", Json.Int payloads) ])

let test_wire_resync_bytes () =
  let payloads =
    [ {|{"q":"a \"quoted\" word"}|}; "line one\nline two\n"; "nul\x00inside\x00";
      ""; String.init 256 Char.chr ]
  in
  let got = Atomic.make None in
  with_fake_primary
    ~reset:(fun ~payloads -> Atomic.set got (Some payloads))
    (fun c fd ->
      write_all fd
        (String.concat ""
           (stream_head
           :: message 'S' (resync_header (List.length payloads))
           :: List.map (message 'P') payloads));
      wait_for "the resync lands" (fun () -> Replication.resyncs c = 1);
      match Atomic.get got with
      | Some p -> check Alcotest.(list string) "payloads byte-identical" payloads p
      | None -> Alcotest.fail "reset never ran")

(* A peer announces 2^40 payloads and streams 1 MiB frames without end:
   the follower holds a resync's frames until the last arrives, so it
   drops the stream once they pass the 1 GiB resync bound, having
   allocated about that much and no more. *)
let test_wire_resync_bound () =
  let bound = 64 * Journal.default_max_record_bytes in
  let frame = message 'P' (String.make (1 lsl 20) 'p') in
  let frames = (bound / String.length frame) + 64 in
  with_fake_primary (fun c fd ->
      let w0 = words () in
      write_all fd (stream_head ^ message 'S' (resync_header (1 lsl 40)));
      (* once the follower gives up, the rest of the writes fail *)
      (try
         for _ = 1 to frames do
           write_all fd frame
         done
       with Unix.Unix_error _ -> ());
      check Alcotest.bool "the follower drops the connection" true
        (peer_closed fd);
      let allocated = words () -. w0 in
      check Alcotest.int "no resync" 0 (Replication.resyncs c);
      if allocated > 1.25 *. float_of_int bound /. 8. then
        Alcotest.failf "allocated %.0f words against a %d-byte bound"
          allocated bound)

(* ---- Fencing epochs --------------------------------------------------------- *)

let addr_of port = Printf.sprintf "127.0.0.1:%d" port

(* Pick an ephemeral port and release it, so a child can be started on a
   port its peers were told about beforehand. *)
let free_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

let assert_error_code what body expected =
  match member_exn "error" body with
  | Json.Obj fields -> (
    match List.assoc_opt "code" fields with
    | Some (Json.String c) -> check Alcotest.string what expected c
    | v ->
      Alcotest.failf "%s: error code %s" what
        (match v with Some v -> Json.to_string v | None -> "missing"))
  | v -> Alcotest.failf "%s: error envelope %s" what (Json.to_string v)

let assert_int_field what body name expected =
  match member_exn name body with
  | Json.Int n -> check Alcotest.int what expected n
  | v -> Alcotest.failf "%s: %s = %s" what name (Json.to_string v)

let assert_winner_field what body expected =
  match member_exn "winner" body with
  | Json.String w -> check Alcotest.string what expected w
  | v -> Alcotest.failf "%s: winner = %s" what (Json.to_string v)

(* The fence is durable and absolute: a primary demoted by a higher epoch
   answers every mutation 409 naming the winner, keeps serving reads, and
   a restart of its directory boots it fenced again — only a deliberate
   promote at the current epoch (the operator override) resurrects it. *)
let test_fencing_durable () =
  let dir = fresh_dir () in
  let c1 = start_child ~state_dir:dir [] in
  wait_ready c1;
  let s1 = create_session c1 in
  let b1 = session_body c1 s1 in
  (* the discovery probe: a fresh primary at epoch 0 *)
  let status, _, body = http c1 "/v1/epoch" in
  check Alcotest.int "epoch probe 200" 200 status;
  assert_int_field "fresh epoch" body "epoch" 0;
  (match member_exn "role" body with
  | Json.String "primary" -> ()
  | v -> Alcotest.failf "probe role: %s" (Json.to_string v));
  (* a demote at or below our epoch is the stale prober's problem *)
  let status, _, body =
    http c1 ~meth:"POST" ~body:{|{"epoch":0,"primary":"127.0.0.1:1"}|}
      "/v1/demote"
  in
  check Alcotest.int "stale demote 409" 409 status;
  assert_error_code "stale demote code" body "stale_epoch";
  check Alcotest.string "still primary" "primary" (ready_str c1 "role");
  (* a malformed demote is a 400, not a fence *)
  let status, _, _ = http c1 ~meth:"POST" ~body:{|{"epoch":"x"}|} "/v1/demote" in
  check Alcotest.int "malformed demote 400" 400 status;
  (* a higher epoch fences: role flips, the winner is recorded *)
  let status, _, _ =
    http c1 ~meth:"POST" ~body:{|{"epoch":5,"primary":"127.0.0.1:19"}|}
      "/v1/demote"
  in
  check Alcotest.int "fencing demote 200" 200 status;
  check Alcotest.string "role flipped" "follower" (ready_str c1 "role");
  check Alcotest.bool "fenced" true (ready_bool c1 "fenced");
  check Alcotest.int "epoch adopted" 5 (ready_int c1 "epoch");
  check Alcotest.bool "demotion counted" true (repl_int c1 "demotions" >= 1);
  (* mutations answer 409 with the winner's address, not the follower 503 *)
  let status, _, body = http c1 ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "mutation fenced" 409 status;
  assert_error_code "fenced code" body "fenced";
  assert_int_field "fenced body epoch" body "epoch" 5;
  assert_winner_field "fenced body winner" body "127.0.0.1:19";
  (* reads keep serving through the fence *)
  check Alcotest.string "reads survive fencing" b1 (session_body c1 s1);
  (* the fence survives kill -9: the ex-primary cannot resurrect itself *)
  kill9 c1;
  let c2 = start_child ~state_dir:dir [] in
  wait_ready c2;
  check Alcotest.string "still follower after restart" "follower"
    (ready_str c2 "role");
  check Alcotest.bool "still fenced after restart" true (ready_bool c2 "fenced");
  check Alcotest.int "epoch survives restart" 5 (ready_int c2 "epoch");
  check Alcotest.string "winner survives restart" "127.0.0.1:19"
    (ready_str c2 "primary");
  let status, _, body = http c2 ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "still 409 after restart" 409 status;
  assert_winner_field "winner hint after restart" body "127.0.0.1:19";
  check Alcotest.string "state survives restart" b1 (session_body c2 s1);
  (* promote refuses a stale expected-epoch (the CAS guard) ... *)
  let status, _, body = http c2 ~meth:"POST" ~body:{|{"epoch":3}|} "/v1/promote" in
  check Alcotest.int "stale CAS promote 409" 409 status;
  assert_error_code "stale CAS code" body "stale_epoch";
  (* ... and the operator override at the current epoch un-fences *)
  let status, _, body = http c2 ~meth:"POST" ~body:{|{"epoch":5}|} "/v1/promote" in
  check Alcotest.int "override promote 200" 200 status;
  (match member_exn "promoted" body with
  | Json.Bool true -> ()
  | v -> Alcotest.failf "override promoted: %s" (Json.to_string v));
  assert_int_field "promotion minted past the fence" body "epoch" 6;
  check Alcotest.string "primary again" "primary" (ready_str c2 "role");
  check Alcotest.bool "fence cleared" false (ready_bool c2 "fenced");
  resize_session c2 s1 6;
  (* the subscriber channel: a follower ahead of us on /v1/replicate is
     proof we were superseded — 409 to it, self-demotion here *)
  let status, _, body = http c2 "/v1/replicate?epoch=9" in
  check Alcotest.int "ahead subscriber 409" 409 status;
  assert_error_code "ahead subscriber code" body "fenced";
  check Alcotest.string "subscriber fenced us" "follower" (ready_str c2 "role");
  check Alcotest.int "subscriber's epoch adopted" 9 (ready_int c2 "epoch");
  kill9 c2

(* ---- Planned handover: demote, promote, converge ---------------------------- *)

let test_planned_handover () =
  let dir_p = fresh_dir () in
  let dir_f = fresh_dir () in
  let fport = free_port () in
  let p = start_child ~state_dir:dir_p [ "--peer"; addr_of fport ] in
  wait_ready p;
  let s1 = create_session p in
  let f =
    start_child ~state_dir:dir_f ~port:fport
      [ "--replica-of"; addr_of p.port; "--peer"; addr_of p.port ]
  in
  wait_ready f;
  wait_for "follower to catch up" (fun () ->
      ready_bool f "connected"
      && ready_int f "lag_records" = 0
      && session_status f s1 = 200);
  (* runbook step 1: step the primary down (empty-body demote) — no epoch
     change, no fence, just a refusal to accept new writes *)
  let status, _, _ = http p ~meth:"POST" "/v1/demote" in
  check Alcotest.int "step-down 200" 200 status;
  check Alcotest.string "stepped down" "follower" (ready_str p "role");
  check Alcotest.bool "planned step-down is not a fence" false
    (ready_bool p "fenced");
  check Alcotest.int "step-down mints no epoch" 0 (ready_int p "epoch");
  let status, _, body = http p ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "handover window refuses writes" 503 status;
  assert_error_code "handover window code" body "follower";
  (* runbook step 2: promote the follower — this mints the epoch that
     makes the handover stick *)
  let status, _, body = http f ~meth:"POST" "/v1/promote" in
  check Alcotest.int "promote 200" 200 status;
  assert_int_field "promotion minted epoch 1" body "epoch" 1;
  (* the new primary's fencer + the old primary's discovery converge: the
     ex-primary adopts the epoch and re-points at the winner *)
  wait_for ~timeout:20. "ex-primary adopts the new epoch" (fun () ->
      ready_int p "epoch" = 1);
  wait_for ~timeout:20. "ex-primary re-points at the winner" (fun () ->
      match ready_field p "primary" with
      | Json.String a -> a = addr_of fport
      | _ -> false);
  wait_for ~timeout:20. "ex-primary subscribes to the winner" (fun () ->
      ready_bool p "connected");
  check Alcotest.bool "handover is still not a fence" false
    (ready_bool p "fenced");
  (* a mutation on the new primary replicates back to the old one *)
  resize_session f s1 6;
  wait_for ~timeout:20. "the mutation replicates back" (fun () ->
      match http p ("/session/" ^ s1) with
      | 200, _, body -> (
        match member_exn "size_bound" body with
        | Json.Int 6 -> true
        | _ -> false)
      | _ -> false
      | exception (Unix.Unix_error _ | Failure _) -> false);
  (* satellite: the 503 hint names the *current* primary, not the
     pre-handover topology *)
  let status, _, body = http p ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "ex-primary still refuses writes" 503 status;
  (match member_exn "error" body with
  | Json.Obj fields -> (
    match List.assoc_opt "message" fields with
    | Some (Json.String m) ->
      let needle = addr_of fport in
      let rec has i =
        i + String.length needle <= String.length m
        && (String.sub m i (String.length needle) = needle || has (i + 1))
      in
      check Alcotest.bool "hint names the new primary" true (has 0)
    | _ -> Alcotest.fail "no error message")
  | v -> Alcotest.failf "error envelope: %s" (Json.to_string v));
  kill9 p;
  kill9 f

(* ---- Satellite: /ready on a disconnected follower --------------------------- *)

let test_ready_disconnected () =
  let dir_p = fresh_dir () in
  let dir_f = fresh_dir () in
  let p = start_child ~state_dir:dir_p [] in
  wait_ready p;
  let s1 = create_session p in
  let f = start_child ~state_dir:dir_f [ "--replica-of"; addr_of p.port ] in
  wait_ready f;
  wait_for "follower to catch up" (fun () ->
      ready_bool f "connected"
      && ready_int f "lag_records" = 0
      && session_status f s1 = 200);
  let b1 = session_body f s1 in
  let primary_before = ready_str f "primary" in
  kill9 p;
  wait_for "the disconnect to be noticed" (fun () ->
      not (ready_bool f "connected"));
  (* /ready stays 200 — a disconnected follower still serves reads — and
     reports the outage honestly: last-known lag, last-known target,
     unchanged epoch *)
  let status, _, body = http f "/ready" in
  check Alcotest.int "/ready stays 200" 200 status;
  (match member_exn "status" body with
  | Json.String "ready" -> ()
  | v -> Alcotest.failf "status: %s" (Json.to_string v));
  check Alcotest.string "still a follower" "follower" (ready_str f "role");
  check Alcotest.bool "connected false" false (ready_bool f "connected");
  check Alcotest.int "last-known lag" 0 (ready_int f "lag_records");
  check Alcotest.int "epoch unchanged" 0 (ready_int f "epoch");
  check Alcotest.string "still names the last-known primary" primary_before
    (ready_str f "primary");
  check Alcotest.string "reads keep serving" b1 (session_body f s1);
  let status, _, _ = http f ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "mutations still refused" 503 status;
  kill9 f

(* ---- Warm resync: every session arrives serving what the primary served -- *)

let test_warm_resync () =
  let dir_p = fresh_dir () in
  let p = start_child ~state_dir:dir_p [] in
  wait_ready p;
  let ids = List.init 3 (fun _ -> create_session p) in
  List.iteri (fun i id -> resize_session p id (5 + i)) ids;
  check Alcotest.bool "primary sessions warm" true
    (metric_int p "sessions_warm" >= 3);
  let bodies = List.map (fun id -> (id, session_body p id)) ids in
  (* a fresh follower's resync carries every entry with the DFSs it
     serves: the follower rewarms them all on arrival, over one context
     build for the one corpus *)
  let dir_f = fresh_dir () in
  let f = start_child ~state_dir:dir_f [ "--replica-of"; addr_of p.port ] in
  wait_ready f;
  wait_for "warm resync to land" (fun () ->
      ready_bool f "connected" && metric_int f "sessions_warm" >= 3);
  check Alcotest.int "one physical build on the follower" 1
    (metric_int f "context_builds_full");
  check Alcotest.int "k sessions pin one context" 3 (intern_int f "refs");
  List.iter
    (fun (id, b) ->
      check Alcotest.string (id ^ " byte-identical from warm resync") b
        (session_body f id))
    bodies;
  kill9 p;
  kill9 f

(* ---- The coordinated-failover harness: 3 nodes, one SIGKILL ----------------- *)

let test_cluster_failover () =
  let dir_p = fresh_dir () in
  let dir_1 = fresh_dir () in
  let dir_2 = fresh_dir () in
  let pport = free_port () in
  let port1 = free_port () in
  let port2 = free_port () in
  let p =
    start_child ~state_dir:dir_p ~port:pport
      [ "--fsync"; "always"; "--peer"; addr_of port1; "--peer"; addr_of port2 ]
  in
  wait_ready p;
  let s1 = create_session p in
  let s2 = create_session p in
  resize_session p s1 6;
  let follower_args other =
    [ "--replica-of"; addr_of pport; "--takeover-after"; "0.75"; "--peer";
      addr_of pport; "--peer"; addr_of other ]
  in
  let f1 = start_child ~state_dir:dir_1 ~port:port1 (follower_args port2) in
  let f2 = start_child ~state_dir:dir_2 ~port:port2 (follower_args port1) in
  wait_ready f1;
  wait_ready f2;
  wait_for "both followers caught up" (fun () ->
      ready_bool f1 "connected"
      && ready_int f1 "lag_records" = 0
      && ready_bool f2 "connected"
      && ready_int f2 "lag_records" = 0
      && session_status f1 s2 = 200
      && session_status f2 s2 = 200);
  let pre = List.map (fun id -> (id, session_body p id)) [ s1; s2 ] in
  let cmp = compare_body p in
  (* the cut *)
  kill9 p;
  (* the election is deterministic: exactly one follower promotes, the
     other defers and re-points *)
  wait_for ~timeout:30. "exactly one promotion" (fun () ->
      let is_p c = ready_str c "role" = "primary" in
      is_p f1 <> is_p f2);
  let winner, survivor =
    if ready_str f1 "role" = "primary" then (f1, f2) else (f2, f1)
  in
  check Alcotest.int "one promotion, winner-side" 1
    (repl_int winner "promotions");
  check Alcotest.int "no promotion, survivor-side" 0
    (repl_int survivor "promotions");
  check Alcotest.int "the winner minted epoch 1" 1 (ready_int winner "epoch");
  wait_for ~timeout:20. "survivor re-points at the winner" (fun () ->
      ready_bool survivor "connected"
      &&
      match ready_field survivor "primary" with
      | Json.String a -> a = addr_of winner.port
      | _ -> false);
  check Alcotest.bool "re-point counted" true
    (repl_int survivor "repoints" >= 1);
  check Alcotest.int "survivor adopted the epoch" 1
    (ready_int survivor "epoch");
  wait_for ~timeout:20. "survivor caught up behind the winner" (fun () ->
      ready_int survivor "lag_records" = 0);
  (* no acked mutation lost, bytes identical across the failover *)
  List.iter
    (fun (id, b) ->
      check Alcotest.string (id ^ " byte-identical on the winner") b
        (session_body winner id);
      check Alcotest.string (id ^ " byte-identical on the survivor") b
        (session_body survivor id))
    pre;
  check Alcotest.string "/compare byte-identical on the winner" cmp
    (compare_body winner);
  check Alcotest.string "/compare byte-identical on the survivor" cmp
    (compare_body survivor);
  (* the new primary accepts writes and streams them to the survivor *)
  let s3 = create_session winner in
  wait_for ~timeout:20. "new record replicates" (fun () ->
      session_status survivor s3 = 200);
  (* revive the dead ex-primary on its old address — worst case, with no
     peer list, so it boots believing itself primary. The winner's fencer
     is still chasing this address: the revived node is demoted in
     absentia, durably, and answers mutations 409 naming the winner. *)
  let z = start_child ~state_dir:dir_p ~port:pport [ "--fsync"; "always" ] in
  wait_ready z;
  wait_for ~timeout:20. "revived ex-primary fenced" (fun () ->
      ready_str z "role" = "follower" && ready_bool z "fenced");
  check Alcotest.int "fenced at the winner's epoch" 1 (ready_int z "epoch");
  let status, _, body = http z ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "revived mutations 409" 409 status;
  assert_error_code "revived fence code" body "fenced";
  assert_int_field "revived fence epoch" body "epoch" 1;
  assert_winner_field "revived fence winner" body (addr_of winner.port);
  (* the fenced node re-joins the winner and converges to the same bytes *)
  wait_for ~timeout:20. "fenced node follows the winner" (fun () ->
      ready_bool z "connected" && session_status z s3 = 200);
  wait_for ~timeout:20. "fenced node caught up" (fun () ->
      ready_int z "lag_records" = 0);
  check Alcotest.string "/compare byte-identical on the fenced node"
    (compare_body winner) (compare_body z);
  (* the fence is durable: another restart still cannot resurrect it *)
  kill9 z;
  let z2 = start_child ~state_dir:dir_p ~port:pport [] in
  wait_ready z2;
  check Alcotest.string "fence survives the restart" "follower"
    (ready_str z2 "role");
  check Alcotest.bool "still fenced" true (ready_bool z2 "fenced");
  check Alcotest.string "winner hint survives the restart"
    (addr_of winner.port) (ready_str z2 "primary");
  kill9 z2;
  kill9 f1;
  kill9 f2

let () =
  Alcotest.run "xsact_failover"
    [
      ( "tailer",
        [
          Alcotest.test_case "offset-addressed reads" `Quick test_tailer;
          Alcotest.test_case "record-size cap" `Quick test_record_cap;
        ] );
      ( "warmboot",
        [
          Alcotest.test_case "warm session adds a scanned result" `Quick
            test_warm_session_adds_scanned;
          Alcotest.test_case "snapshot warm boot" `Quick test_warm_boot;
          Alcotest.test_case "intern rewarm" `Quick test_intern_rewarm;
        ] );
      ( "stopdrain",
        [ Alcotest.test_case "flush on clean stop" `Quick test_stop_drain ] );
      ( "failover",
        [
          Alcotest.test_case "kill the primary" `Quick test_failover;
          Alcotest.test_case "resized session survives a crash and a follower"
            `Quick test_resized_survives_crash_and_follower;
          Alcotest.test_case "auto takeover" `Quick test_auto_takeover;
          Alcotest.test_case "divergence heals" `Quick test_divergence;
        ] );
      ( "wire",
        [
          Alcotest.test_case "frame over the cap" `Quick test_wire_over_cap;
          Alcotest.test_case "endless status line" `Quick
            test_wire_endless_status;
          Alcotest.test_case "resync bytes" `Quick test_wire_resync_bytes;
          Alcotest.test_case "resync over its byte bound" `Quick
            test_wire_resync_bound;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "durable fence" `Quick test_fencing_durable;
          Alcotest.test_case "planned handover" `Quick test_planned_handover;
          Alcotest.test_case "ready while disconnected" `Quick
            test_ready_disconnected;
          Alcotest.test_case "warm resync" `Quick test_warm_resync;
          Alcotest.test_case "cluster failover" `Quick test_cluster_failover;
        ] );
    ]
