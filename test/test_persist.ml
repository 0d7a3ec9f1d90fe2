(* Durability tests, bottom-up: CRC vectors, journal framing and torn-tail
   repair, snapshot/compaction crash windows, the server's recovery gate —
   and the acceptance harness at the top of the stack: a real xsact-serve
   child driven over HTTP and killed with SIGKILL at failpoint-chosen
   moments (mid-append, mid-snapshot, between fsyncs), restarted on the
   same --state-dir, and required to serve every acknowledged mutation. *)

module Crc32 = Xsact_persist.Crc32
module Journal = Xsact_persist.Journal
module Store = Xsact_persist.Store
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
        (Printf.sprintf "xsact_persist_%d_%d" (Unix.getpid ()) !counter)
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

(* ---- CRC-32 -------------------------------------------------------------- *)

let test_crc_vectors () =
  (* the standard IEEE 802.3 check value *)
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.string "123456789");
  check Alcotest.int32 "empty" 0l (Crc32.string "");
  check Alcotest.int32 "slice = whole" (Crc32.string "456")
    (Crc32.string ~off:3 ~len:3 "123456789");
  check Alcotest.int32 "bytes agrees" (Crc32.string "abc")
    (Crc32.bytes (Bytes.of_string "abc"));
  check Alcotest.bool "sensitive to a flipped bit" true
    (Crc32.string "abd" <> Crc32.string "abc")

(* ---- Journal framing ------------------------------------------------------ *)

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "j" in
  let j = Journal.open_append ~fsync:Journal.Always path in
  List.iter (Journal.append j) [ "alpha"; ""; "gamma with spaces" ];
  check Alcotest.int "appends counted" 3 (Journal.appends j);
  check Alcotest.int "bytes counted"
    (List.fold_left
       (fun acc p -> acc + 8 + String.length p)
       0
       [ "alpha"; ""; "gamma with spaces" ])
    (Journal.bytes_written j);
  Journal.close j;
  let r = Journal.read path in
  check
    Alcotest.(list string)
    "payloads in order"
    [ "alpha"; ""; "gamma with spaces" ]
    r.Journal.payloads;
  check Alcotest.int "nothing torn" 0 r.Journal.truncated_records;
  (* a missing file is an empty journal *)
  let r = Journal.read (Filename.concat dir "nope") in
  check Alcotest.(list string) "missing = empty" [] r.Journal.payloads

let test_journal_torn_tail () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "j" in
  let j = Journal.open_append ~fsync:Journal.Never path in
  List.iter (Journal.append j) [ "one"; "two"; "three" ];
  Journal.close j;
  let full = read_file path in
  (* cut the last record's payload short: a torn tail *)
  write_file path (String.sub full 0 (String.length full - 2));
  let r = Journal.read path in
  check Alcotest.(list string) "good prefix" [ "one"; "two" ]
    r.Journal.payloads;
  check Alcotest.int "tail counted" 1 r.Journal.truncated_records;
  check Alcotest.bool "bytes dropped" true (r.Journal.truncated_bytes > 0);
  (* repair happened on disk: a second read is clean and byte-identical *)
  let repaired = read_file path in
  let r2 = Journal.read path in
  check Alcotest.(list string) "same payloads" [ "one"; "two" ]
    r2.Journal.payloads;
  check Alcotest.int "second read sees nothing torn" 0
    r2.Journal.truncated_records;
  check Alcotest.string "file untouched by second read" repaired
    (read_file path);
  (* the repaired journal accepts new appends *)
  let j = Journal.open_append ~fsync:Journal.Never path in
  Journal.append j "four";
  Journal.close j;
  check
    Alcotest.(list string)
    "append after repair"
    [ "one"; "two"; "four" ]
    (Journal.read path).Journal.payloads

let test_journal_corruption () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "j" in
  let j = Journal.open_append ~fsync:Journal.Never path in
  List.iter (Journal.append j) [ "first"; "second"; "third" ];
  Journal.close j;
  let full = Bytes.of_string (read_file path) in
  (* flip one payload byte of the middle record: CRC must catch it, and
     framing — hence everything after — is lost with it *)
  let mid = 8 + String.length "first" + 8 in
  Bytes.set full mid (Char.chr (Char.code (Bytes.get full mid) lxor 0x40));
  write_file path (Bytes.to_string full);
  let r = Journal.read ~repair:false path in
  check Alcotest.(list string) "prefix before corruption" [ "first" ]
    r.Journal.payloads;
  check Alcotest.int "one torn tail" 1 r.Journal.truncated_records;
  (* repair:false left the file alone *)
  check Alcotest.string "no repair requested" (Bytes.to_string full)
    (read_file path);
  (* an implausible length header is torn, not allocated *)
  write_file path "\xff\xff\xff\x7f\x00\x00\x00\x00";
  let r = Journal.read path in
  check Alcotest.(list string) "absurd length rejected" [] r.Journal.payloads;
  check Alcotest.int "counted" 1 r.Journal.truncated_records

(* ---- Store: compaction and its crash windows ------------------------------ *)

let test_store_compact () =
  let dir = fresh_dir () in
  let t, r = Store.open_dir ~fsync:Journal.Never dir in
  check Alcotest.(list string) "fresh dir: no snapshot" [] r.Store.snapshot;
  check Alcotest.(list string) "fresh dir: no journal" [] r.Store.journal;
  Store.append t "op1";
  Store.append t "op2";
  Store.compact t [ "state1"; "state2" ];
  Store.append t "op3";
  check Alcotest.int "snapshot counted" 1 (Store.snapshots_total t);
  check Alcotest.int "appends survive truncation in the count" 3
    (Store.journal_appends t);
  Store.close t;
  let t2, r2 = Store.open_dir ~fsync:Journal.Never dir in
  check Alcotest.(list string) "snapshot payloads" [ "state1"; "state2" ]
    r2.Store.snapshot;
  check Alcotest.(list string) "journal since snapshot" [ "op3" ]
    r2.Store.journal;
  Store.close t2

let test_store_leftover_tmp () =
  let dir = fresh_dir () in
  let t, _ = Store.open_dir ~fsync:Journal.Never dir in
  Store.append t "op";
  Store.close t;
  (* a checkpoint that died mid-write must be ignored and removed *)
  write_file (Filename.concat dir "snapshot.tmp") "half-written garbage";
  let t2, r = Store.open_dir ~fsync:Journal.Never dir in
  check Alcotest.(list string) "journal intact" [ "op" ] r.Store.journal;
  check Alcotest.bool "tmp removed" false
    (Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  Store.close t2

let test_store_crash_windows () =
  (* die before the rename: old state wins; die after the rename but
     before the journal truncation: new snapshot + stale journal — the
     caller's idempotent fold absorbs the replay *)
  let dir = fresh_dir () in
  let t, _ = Store.open_dir ~fsync:Journal.Never dir in
  Store.append t "op1";
  Failpoint.reset ();
  Failpoint.enable "persist.snapshot.rename" Failpoint.Fail;
  (match Store.compact t [ "snapA" ] with
  | () -> Alcotest.fail "failpoint did not fire"
  | exception Failpoint.Injected _ -> ());
  Failpoint.reset ();
  Store.close t;
  let t, r = Store.open_dir ~fsync:Journal.Never dir in
  check Alcotest.(list string) "pre-rename crash: no snapshot" []
    r.Store.snapshot;
  check Alcotest.(list string) "pre-rename crash: journal intact" [ "op1" ]
    r.Store.journal;
  Failpoint.enable "persist.snapshot.truncate" Failpoint.Fail;
  (match Store.compact t [ "snapB" ] with
  | () -> Alcotest.fail "failpoint did not fire"
  | exception Failpoint.Injected _ -> ());
  Failpoint.reset ();
  Store.close t;
  let t, r = Store.open_dir ~fsync:Journal.Never dir in
  check Alcotest.(list string) "post-rename crash: new snapshot" [ "snapB" ]
    r.Store.snapshot;
  check Alcotest.(list string) "post-rename crash: stale journal replays"
    [ "op1" ] r.Store.journal;
  Store.close t

(* ---- In-process server: recovery gate and round-trips --------------------- *)

let request ?(meth = "GET") ?(headers = []) ?(body = "") target =
  let path, query = Http.split_target target in
  { Http.meth; target; path; query; headers; body }

let create_body = {|{"dataset":"product-reviews","q":"gps","top":3}|}

let test_server_readiness () =
  let dir = fresh_dir () in
  let t = Server.create ~datasets:[ "product-reviews" ] ~state_dir:dir () in
  let resp = Server.handle t (request "/ready") in
  check Alcotest.int "unrecovered: /ready 503" 503 resp.Http.status;
  let resp = Server.handle t (request "/health") in
  check Alcotest.int "liveness stays 200" 200 resp.Http.status;
  let resp = Server.handle t (request "/datasets") in
  check Alcotest.int "routes gated 503" 503 resp.Http.status;
  check Alcotest.(option string) "retry-after set" (Some "1")
    (List.assoc_opt "Retry-After" resp.Http.resp_headers);
  Server.recover t;
  let resp = Server.handle t (request "/ready") in
  check Alcotest.int "recovered: /ready 200" 200 resp.Http.status;
  let resp = Server.handle t (request "/datasets") in
  check Alcotest.int "routes open" 200 resp.Http.status;
  (* without a state dir the gate never exists *)
  let t = Server.create ~datasets:[ "product-reviews" ] () in
  let resp = Server.handle t (request "/ready") in
  check Alcotest.int "no state dir: born ready" 200 resp.Http.status

let test_server_roundtrip () =
  let dir = fresh_dir () in
  let t = Server.create ~datasets:[ "product-reviews" ] ~state_dir:dir () in
  Server.recover t;
  let handle ?meth ?body target = Server.handle t (request ?meth ?body target) in
  let resp = handle ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "s1 created" 201 resp.Http.status;
  let resp = handle ~meth:"POST" ~body:create_body "/session" in
  check Alcotest.int "s2 created" 201 resp.Http.status;
  let resp =
    handle ~meth:"POST" ~body:{|{"size_bound":6}|} "/session/s2/size"
  in
  check Alcotest.int "s2 resized" 200 resp.Http.status;
  let s1_body = (handle "/session/s1").Http.resp_body in
  (* a second server on the same directory serves the same sessions *)
  let t2 = Server.create ~datasets:[ "product-reviews" ] ~state_dir:dir () in
  Server.recover t2;
  let handle2 ?meth ?body target =
    Server.handle t2 (request ?meth ?body target)
  in
  check Alcotest.string "s1 byte-identical after recovery" s1_body
    (handle2 "/session/s1").Http.resp_body;
  (match member_exn "size_bound" (handle2 "/session/s2").Http.resp_body with
  | Json.Int 6 -> ()
  | v -> Alcotest.failf "s2 size_bound not recovered: %s" (Json.to_string v));
  (match member_exn "durability" (handle2 "/metrics").Http.resp_body with
  | Json.Obj fields ->
    check
      Alcotest.(option int)
      "two sessions recovered" (Some 2)
      (match List.assoc_opt "recovered_sessions" fields with
      | Some (Json.Int n) -> Some n
      | _ -> None)
  | v -> Alcotest.failf "no durability metrics: %s" (Json.to_string v));
  (* ids continue, never reuse *)
  (match member_exn "id" (handle2 ~meth:"POST" ~body:create_body "/session")
           .Http.resp_body
   with
  | Json.String "s3" -> ()
  | v -> Alcotest.failf "expected s3, got %s" (Json.to_string v));
  (* deletion is durable too *)
  let resp = handle2 ~meth:"DELETE" "/session/s1" in
  check Alcotest.int "s1 deleted" 200 resp.Http.status;
  let t3 = Server.create ~datasets:[ "product-reviews" ] ~state_dir:dir () in
  Server.recover t3;
  let resp = Server.handle t3 (request "/session/s1") in
  check Alcotest.int "s1 stays deleted" 404 resp.Http.status;
  let resp = Server.handle t3 (request "/session/s2") in
  check Alcotest.int "s2 survives" 200 resp.Http.status

(* Requests once carried a client-chosen "domains" count, and the journal
   stored it with the rest of the request body. Such a record must still
   recover, and serve exactly what a session created today from the same
   request serves. The payload is verbatim what the server wrote then. *)
let test_server_recovers_domains_field () =
  let fresh = Server.create ~datasets:[ "product-reviews" ] () in
  let resp =
    Server.handle fresh (request ~meth:"POST" ~body:create_body "/session")
  in
  check Alcotest.int "fresh s1 created" 201 resp.Http.status;
  let expected = (Server.handle fresh (request "/session/s1")).Http.resp_body in
  let dir = fresh_dir () in
  let store, _ = Store.open_dir ~fsync:Journal.Never dir in
  Store.append store
    {|{"op":"create","id":"s1","t":1792140119.57,"entry":{"v":1,"dataset":"product-reviews","request":{"dataset":"product-reviews","q":"gps","top":3,"size_bound":8,"algorithm":"multi-swap","threshold_pct":10.0,"measure":"raw","weights":{},"domains":3},"ranks":[1,2,3],"size_bound":8}}|};
  Store.close store;
  let t = Server.create ~datasets:[ "product-reviews" ] ~state_dir:dir () in
  Server.recover t;
  let resp = Server.handle t (request "/session/s1") in
  check Alcotest.int "old record recovered" 200 resp.Http.status;
  check Alcotest.string "same body as a fresh session" expected
    resp.Http.resp_body

(* ---- The kill -9 harness -------------------------------------------------- *)

let serve_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "xsact_serve.exe"

type child = { pid : int; port : int; out_fd : Unix.file_descr }

(* Start a real xsact-serve child and parse its port off stdout. [env_extra]
   arms failpoints in the child only (XSACT_FAILPOINTS=...). *)
let start_child ?(env_extra = []) ~state_dir args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let argv =
    Array.of_list
      ([ serve_exe; "--port"; "0"; "--dataset"; "product-reviews";
         "--state-dir"; state_dir ]
      @ args)
  in
  let env =
    Array.append (Unix.environment ()) (Array.of_list env_extra)
  in
  let pid =
    Unix.create_process_env serve_exe argv env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  (* read the listening line, bounded so a wedged child fails the test
     instead of hanging the suite *)
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
  let port = ref None in
  let chunk = Bytes.create 4096 in
  while !port = None && Unix.gettimeofday () < deadline do
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
        port := parse_port (Buffer.contents buf)
      end
  done;
  match !port with
  | None ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Alcotest.failf "no listening line from child: %s" (Buffer.contents buf)
  | Some port -> { pid; port; out_fd = out_r }

let wait_ready child =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    let ready =
      match
        Http.request ~host:"127.0.0.1" ~port:child.port "/ready"
      with
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

let http child ?meth ?body target =
  Http.request ~host:"127.0.0.1" ~port:child.port ?meth ?body target

(* The test's own ledger of acknowledged state: id -> (size_bound, ranks).
   After every restart, each entry must be served back. *)
let assert_sessions child expected =
  List.iter
    (fun (id, size_bound, ranks) ->
      let status, _, body = http child ("/session/" ^ id) in
      check Alcotest.int (id ^ " recovered") 200 status;
      (match member_exn "size_bound" body with
      | Json.Int n ->
        check Alcotest.int (id ^ " size_bound") size_bound n
      | v -> Alcotest.failf "%s size_bound: %s" id (Json.to_string v));
      match member_exn "ranks" body with
      | Json.List vs ->
        check
          Alcotest.(list int)
          (id ^ " ranks") ranks
          (List.filter_map Json.to_int vs)
      | v -> Alcotest.failf "%s ranks: %s" id (Json.to_string v))
    expected

let durability_stat child name =
  let _, _, metrics = http child "/metrics" in
  match member_exn "durability" metrics with
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some (Json.Int n) -> n
    | v ->
      Alcotest.failf "durability.%s: %s" name
        (match v with Some v -> Json.to_string v | None -> "missing"))
  | v -> Alcotest.failf "durability: %s" (Json.to_string v)

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

let test_kill9_harness () =
  let dir = fresh_dir () in
  let journal_path = Filename.concat dir "journal" in

  (* Cycle 1: mutations acked between fsyncs (interval far longer than the
     run), then SIGKILL. A process-only crash keeps the page cache, so
     everything acked must recover even though nothing was fsynced. *)
  let c1 = start_child ~state_dir:dir [ "--fsync"; "interval:600" ] in
  wait_ready c1;
  let s1 = create_session c1 in
  let s2 = create_session c1 in
  resize_session c1 s1 6;
  kill9 c1;

  (* Cycle 2: clean recovery, then one more acked session. *)
  let c2 = start_child ~state_dir:dir [ "--fsync"; "always" ] in
  wait_ready c2;
  check Alcotest.int "no torn records after clean kill" 0
    (durability_stat c2 "recovery_truncated_records");
  check Alcotest.int "both sessions recovered" 2
    (durability_stat c2 "recovered_sessions");
  assert_sessions c2 [ (s1, 6, [ 1; 2; 3 ]); (s2, 8, [ 1; 2; 3 ]) ];
  let s3 = create_session c2 in
  kill9 c2;

  (* Cycle 3: park the journal append between its header and payload
     writes and SIGKILL the child there — a manufactured torn tail. The
     op was never acknowledged, so losing it is correct; mangling the
     records before it would not be. *)
  let c3 =
    start_child ~state_dir:dir
      ~env_extra:[ "XSACT_FAILPOINTS=persist.append.tear=sleep:600" ]
      [ "--fsync"; "never" ]
  in
  wait_ready c3;
  assert_sessions c3
    [ (s1, 6, [ 1; 2; 3 ]); (s2, 8, [ 1; 2; 3 ]); (s3, 8, [ 1; 2; 3 ]) ];
  let before = file_size journal_path in
  let sock = send_unacked c3 create_body "/session" in
  wait_for "torn header to land" (fun () ->
      file_size journal_path >= before + 8);
  kill9 c3;
  Unix.close sock;

  (* Recovery of the torn directory is idempotent: recover a copy twice;
     the first pass truncates the tail, the second finds nothing to do
     and the files stay byte-identical. *)
  let copy = fresh_dir () in
  let _ =
    Sys.command
      (Printf.sprintf "cp -r %s %s" (Filename.quote dir) (Filename.quote copy))
  in
  let t, r = Store.open_dir ~fsync:Journal.Never copy in
  check Alcotest.int "copy: torn tail found" 1 r.Store.truncated_records;
  Store.close t;
  let j1 = read_file (Filename.concat copy "journal") in
  let t, r = Store.open_dir ~fsync:Journal.Never copy in
  check Alcotest.int "copy: second recovery clean" 0 r.Store.truncated_records;
  Store.close t;
  check Alcotest.string "copy: second recovery byte-identical" j1
    (read_file (Filename.concat copy "journal"));

  (* Cycle 4: the torn tail is dropped and counted; every acked mutation
     is still served; the torn create's id was never acked so it may be
     minted again. *)
  let c4 = start_child ~state_dir:dir [] in
  wait_ready c4;
  check Alcotest.int "torn tail counted in /metrics" 1
    (durability_stat c4 "recovery_truncated_records");
  assert_sessions c4
    [ (s1, 6, [ 1; 2; 3 ]); (s2, 8, [ 1; 2; 3 ]); (s3, 8, [ 1; 2; 3 ]) ];
  let status, _, _ = http c4 "/session/s4" in
  check Alcotest.int "torn session never existed" 404 status;
  let s4 = create_session c4 in
  check Alcotest.string "unacked id reminted" "s4" s4;
  kill9 c4;

  (* Cycle 5: SIGKILL mid-snapshot, before the atomic rename. The
     checkpoint dies as snapshot.tmp; the journal still has everything. *)
  let c5 =
    start_child ~state_dir:dir
      ~env_extra:[ "XSACT_FAILPOINTS=persist.snapshot.rename=sleep:600" ]
      [ "--snapshot-every"; "1" ]
  in
  wait_ready c5;
  let sock = send_unacked c5 {|{"size_bound":10}|} ("/session/" ^ s1 ^ "/size") in
  wait_for "tmp checkpoint to appear" (fun () ->
      Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  kill9 c5;
  Unix.close sock;

  (* Cycle 6: the aborted checkpoint is discarded; the journaled (if
     unacked) resize replays. Then SIGKILL in the other snapshot crash
     window: after the rename, before the journal truncation. *)
  let c6 =
    start_child ~state_dir:dir
      ~env_extra:[ "XSACT_FAILPOINTS=persist.snapshot.truncate=sleep:600" ]
      [ "--snapshot-every"; "1" ]
  in
  wait_ready c6;
  check Alcotest.bool "aborted checkpoint discarded" false
    (Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  assert_sessions c6
    [ (s1, 10, [ 1; 2; 3 ]); (s2, 8, [ 1; 2; 3 ]);
      (s3, 8, [ 1; 2; 3 ]); (s4, 8, [ 1; 2; 3 ]) ];
  let sock = send_unacked c6 {|{"size_bound":5}|} ("/session/" ^ s2 ^ "/size") in
  wait_for "renamed snapshot to appear" (fun () ->
      Sys.file_exists (Filename.concat dir "snapshot")
      && file_size (Filename.concat dir "snapshot") > 0);
  kill9 c6;
  Unix.close sock;

  (* Cycle 7: new snapshot + stale journal replays idempotently. *)
  let c7 = start_child ~state_dir:dir [] in
  wait_ready c7;
  assert_sessions c7
    [ (s1, 10, [ 1; 2; 3 ]); (s2, 5, [ 1; 2; 3 ]);
      (s3, 8, [ 1; 2; 3 ]); (s4, 8, [ 1; 2; 3 ]) ];
  kill9 c7;

  (* Rapid kill/restart churn: each lap mutates, dies, and must find the
     previous lap's acked mutation on boot. *)
  let expected = ref 10 in
  for lap = 1 to 3 do
    let c = start_child ~state_dir:dir [ "--fsync"; "interval:0.01" ] in
    wait_ready c;
    assert_sessions c [ (s1, !expected, [ 1; 2; 3 ]) ];
    let next = 4 + lap in
    resize_session c s1 next;
    expected := next;
    kill9 c
  done;
  let c = start_child ~state_dir:dir [] in
  wait_ready c;
  assert_sessions c [ (s1, !expected, [ 1; 2; 3 ]) ];
  kill9 c;
  let _ = Sys.command (Printf.sprintf "rm -rf %s %s" (Filename.quote dir)
                         (Filename.quote copy)) in
  ()

let () =
  Alcotest.run "xsact_persist"
    [
      ("crc32", [ Alcotest.test_case "vectors" `Quick test_crc_vectors ]);
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail repair" `Quick test_journal_torn_tail;
          Alcotest.test_case "corruption" `Quick test_journal_corruption;
        ] );
      ( "store",
        [
          Alcotest.test_case "compaction" `Quick test_store_compact;
          Alcotest.test_case "leftover tmp" `Quick test_store_leftover_tmp;
          Alcotest.test_case "crash windows" `Quick test_store_crash_windows;
        ] );
      ( "server",
        [
          Alcotest.test_case "readiness gate" `Quick test_server_readiness;
          Alcotest.test_case "recovery roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "recovers a journaled domains field" `Quick
            test_server_recovers_domains_field;
        ] );
      ( "kill9",
        [ Alcotest.test_case "crash-restart cycles" `Quick test_kill9_harness ]
      );
    ]
