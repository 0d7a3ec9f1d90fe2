(* xsact-serve: the HTTP comparison service.

   dune exec bin/xsact_serve.exe -- --port 8080
   curl localhost:8080/datasets *)

open Cmdliner
module Server = Xsact_server.Server

let parse_hostport ~flag spec =
  match String.rindex_opt spec ':' with
  | Some i when i > 0 && i < String.length spec - 1 -> (
    let host = String.sub spec 0 i in
    let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port_s with
    | Some p when p > 0 && p < 65536 -> (host, p)
    | _ ->
      prerr_endline
        (Printf.sprintf "xsact-serve: %s: bad port in %s" flag spec);
      exit 1)
  | _ ->
    prerr_endline
      (Printf.sprintf "xsact-serve: %s: expected HOST:PORT, got %s" flag spec);
    exit 1

let serve port threads cache datasets deadline_ms max_pending
    session_ttl max_sessions state_dir fsync snapshot_every no_incremental
    max_context_mb replica_of peers takeover_after =
  let datasets = match datasets with [] -> None | names -> Some names in
  let fsync =
    match Xsact_persist.Journal.policy_of_string fsync with
    | Ok p -> p
    | Error msg ->
      prerr_endline ("xsact-serve: --fsync: " ^ msg);
      exit 1
  in
  let replica_of =
    Option.map (parse_hostport ~flag:"--replica-of") replica_of
  in
  let peers = List.map (parse_hostport ~flag:"--peer") peers in
  let takeover_after =
    match takeover_after with
    | None -> None
    | Some s when s <= 0. -> None
    | Some s -> Some s
  in
  let max_context_bytes =
    Option.map
      (fun mb -> int_of_float (mb *. 1024. *. 1024.))
      max_context_mb
  in
  let server =
    try
      Ok
        (Server.create ?datasets ~cache_capacity:cache
           ~incremental:(not no_incremental) ?max_context_bytes ?deadline_ms
           ?session_ttl_s:session_ttl ?max_sessions ?state_dir
           ~fsync ~snapshot_every ?replica_of ~peers ?takeover_after ())
    with Invalid_argument msg -> Error msg
  in
  match server with
  | Error msg ->
    prerr_endline ("xsact-serve: " ^ msg);
    exit 1
  | Ok server ->
    let running =
      try Server.start ~threads ~max_pending ~port server
      with
      | Unix.Unix_error (err, _, _) ->
        prerr_endline
          (Printf.sprintf "xsact-serve: cannot bind port %d: %s" port
             (Unix.error_message err));
        exit 1
      | Invalid_argument msg ->
        prerr_endline ("xsact-serve: " ^ msg);
        exit 1
    in
    Printf.printf "xsact-serve listening on http://127.0.0.1:%d\n"
      (Server.port running);
    Printf.printf
      "  workers: %d  cache: %d entries  max-pending: %d  deadline: %s  \
       datasets: %s\n\
       %!"
      threads cache max_pending
      (match deadline_ms with
      | Some ms -> Printf.sprintf "%dms" ms
      | None -> "none")
      (String.concat ", " (Server.dataset_names server));
    (* Recover after the listening line so supervisors can already probe
       GET /ready (503 until the replay below finishes). *)
    Server.recover server;
    (match state_dir with
    | None -> ()
    | Some dir -> Printf.printf "  state: %s (durable sessions)\n%!" dir);
    (match replica_of with
    | None -> ()
    | Some (h, p) ->
      Printf.printf "  role: follower of %s:%d%s\n%!" h p
        (match takeover_after with
        | Some s -> Printf.sprintf " (takeover after %.1fs silent)" s
        | None -> ""));
    (match peers with
    | [] -> ()
    | ps ->
      Printf.printf "  peers: %s\n%!"
        (String.concat ", "
           (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) ps)));
    let stop_requested = ref false in
    let request_stop _ = stop_requested := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop_requested do
      Thread.delay 0.25
    done;
    print_endline "xsact-serve: shutting down";
    Server.stop running

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Port to listen on (0 picks an ephemeral port).")

let threads_arg =
  Arg.(
    value & opt int 4
    & info [ "threads" ] ~docv:"N" ~doc:"Worker threads serving connections.")

let cache_arg =
  Arg.(
    value & opt int 128
    & info [ "cache" ] ~docv:"N" ~doc:"Comparison LRU cache capacity.")

let datasets_arg =
  Arg.(
    value & opt_all string []
    & info [ "dataset" ] ~docv:"NAME"
        ~doc:
          "Dataset to load (repeatable; default: the whole registry). See \
           GET /datasets.")

let deadline_arg =
  Arg.(
    value & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request compute budget for POST /compare \
           (milliseconds). A tripped budget returns the algorithm's valid \
           best-so-far with an X-Degraded header, or 504 when nothing \
           completed. Clients override per request with X-Deadline-Ms, \
           capped by the server. Default: unbounded.")

let max_pending_arg =
  Arg.(
    value & opt int 64
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "Admission bound on accepted-but-unserved connections; beyond it \
           new connections are shed with 503 + Retry-After. At half this \
           bound, multi-swap compares degrade to single-swap.")

let session_ttl_arg =
  Arg.(
    value & opt (some float) None
    & info [ "session-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Expire server-resident sessions idle longer than this. Default: \
           never.")

let max_sessions_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Cap on live sessions; adding past it evicts the \
           least-recently-used. Default: unbounded.")

let state_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Persist sessions to $(docv) (journal + snapshot) and recover \
           them on boot; GET /ready answers 503 until recovery completes. \
           Default: in-memory only.")

let fsync_arg =
  Arg.(
    value & opt string "interval"
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal fsync policy: $(b,always) (fsync every append), \
           $(b,interval) or $(b,interval:SECONDS) (batch fsyncs, default \
           0.1s), or $(b,never) (leave it to the OS). Only meaningful with \
           --state-dir.")

let snapshot_every_arg =
  Arg.(
    value & opt int 256
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Compact the journal into a snapshot after every $(docv) appends \
           (0 disables automatic compaction). Only meaningful with \
           --state-dir.")

let no_incremental_arg =
  Arg.(
    value & flag
    & info [ "no-incremental" ]
        ~doc:
          "Disable delta maintenance of session contexts, cross-session \
           context interning, and the warm-context reuse behind POST \
           /compare — every mutation (single-op, batched via /apply, or \
           a /params patch) rebuilds the pair tables from scratch and \
           every session holds a private copy. Responses are \
           byte-identical either way; this is the ablation/baseline \
           configuration.")

let max_context_mb_arg =
  Arg.(
    value & opt (some float) None
    & info [ "max-context-mb" ] ~docv:"MB"
        ~doc:
          "One byte budget for all warm contexts: interned session \
           contexts (counted once however many sessions share them) plus \
           the unpinned reuse entries behind POST /compare. Past it, \
           least-recently-used sessions are demoted to cold and the \
           freed entries shed. Default: unbounded.")

let replica_of_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replica-of" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a live follower of the primary at $(docv): tail its \
           journal over GET /v1/replicate, apply every acked record into \
           warm state, serve reads and POST /compare while refusing \
           mutations with 503, and flip to primary on POST /v1/promote \
           (or automatically with --takeover-after). Requires \
           --state-dir — the follower keeps its own always-recoverable \
           copy.")

let peers_arg =
  Arg.(
    value & opt_all string []
    & info [ "peer" ] ~docv:"HOST:PORT"
        ~doc:
          "Another node of this cluster (repeatable). The list drives \
           coordinated failover: a booting primary probes it and joins a \
           live higher-epoch primary instead of forking history, a \
           follower that loses its primary walks it to find (or elect) \
           the new one, and a freshly promoted primary fences every \
           entry with POST /v1/demote until acknowledged.")

let takeover_after_arg =
  Arg.(
    value & opt (some float) None
    & info [ "takeover-after" ] ~docv:"SECONDS"
        ~doc:
          "With --replica-of: run the takeover election after the \
           primary has been unreachable for $(docv) seconds \
           (jittered capped-backoff reconnects keep probing until then; \
           with --peer the highest-epoch, lowest-address live follower \
           wins and the rest re-point to it). 0 or absent: manual \
           promotion only.")

let cmd =
  let doc = "serve XSACT comparisons over a JSON HTTP API" in
  Cmd.v
    (Cmd.info "xsact-serve" ~version:"1.0.0" ~doc)
    Term.(
      const serve $ port_arg $ threads_arg $ cache_arg $ datasets_arg
      $ deadline_arg $ max_pending_arg $ session_ttl_arg $ max_sessions_arg
      $ state_dir_arg $ fsync_arg $ snapshot_every_arg $ no_incremental_arg
      $ max_context_mb_arg
      $ replica_of_arg $ peers_arg $ takeover_after_arg)

let () = exit (Cmd.eval cmd)
