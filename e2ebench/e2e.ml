(* End-to-end benchmark of xsact-serve.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH

   --trace 0 spawns the daemon, drives it over loopback from 2 keep-alive
   connections on 2 client threads (closed loop) and prints the
   end-to-end metrics. --trace 1 prints the per-layer metrics: a short
   untraced daemon window (counter deltas, end-to-end p50) followed by the
   traced in-process replay of the same seeded stream (see replay.ml).
   --smoke runs every workload briefly with checks only. The last line of
   stdout is one JSON object: {"correct", "attempted", "failed",
   "metrics"}. Any failed check makes the exit code 1. *)

module Dataset = Xsact_dataset.Dataset

let nconn = 2

type opts = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  serve_exe : string;
  workdir : string;
}

(* A phase ends at a deadline (timed runs) or after a request count (the
   smoke). *)
type budget = Seconds of float | Requests of int

(* ---- Files --------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_dir o tag =
  let dir =
    Filename.concat o.workdir
      (Printf.sprintf "%s-%s-s%d-p%d" (Gen.name o.workload) tag o.seed (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  dir

(* ---- Output ----------------------------------------------------------------- *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Every digit; NaN (a metric without samples, reported as a failure)
   prints as 0 to keep the line valid JSON. *)
let number v =
  if Float.is_nan v then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics))

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> say "  %-32s %14.4f %s" name v unit) metrics

(* ---- Client load -------------------------------------------------------------- *)

type tally = {
  lat : Stats.vec;  (* ms, 2xx replies *)
  classes : (string, Stats.vec) Hashtbl.t;  (* hit / miss / mutation / get / create *)
  mutable attempted : int;
  mutable ok : int;
  mutable non2xx : int;
  mutable transport : int;
  mutable bad : int;  (* replies failing a check *)
  mutable mutations : int;  (* acknowledged *)
  mutable samples : (Gen.item * string) list;
  mutable last_s : float;
  mutable notes : string list;  (* the first few failures *)
}

let tally () =
  {
    lat = Stats.vec ();
    classes = Hashtbl.create 8;
    attempted = 0;
    ok = 0;
    non2xx = 0;
    transport = 0;
    bad = 0;
    mutations = 0;
    samples = [];
    last_s = 0.;
    notes = [];
  }

let failed tl = tl.non2xx + tl.transport + tl.bad

let note tl msg = if List.length tl.notes < 5 then tl.notes <- msg :: tl.notes

let class_of (it : Gen.item) (r : Daemon.reply) =
  match it.Gen.kind with
  | Gen.Compare -> Option.value ~default:"miss" (Daemon.header r "x-cache")
  | Gen.Mutation _ -> "mutation"
  | Gen.Get -> "get"
  | Gen.Create -> "create"

let json_int name j = Option.bind (Json.member name j) Json.to_int

let json_ranks j =
  Option.bind (Json.member "ranks" j) (fun l ->
      Option.map (List.filter_map Json.to_int) (Json.to_list l))

(* Inline checks of one 2xx reply; [None] when it passes. *)
let check w ~first_bodies ~timed (it : Gen.item) (r : Daemon.reply) =
  let session_state () =
    match Json.of_string r.Daemon.body with
    | Error _ -> Some "unparseable session reply"
    | Ok j ->
      if it.Gen.kind <> Gen.Compare && json_ranks j <> Some it.Gen.ranks then
        Some "ranks differ from the bench's model"
      else if json_int "size_bound" j <> Some it.Gen.bound then
        Some "size_bound differs from the bench's model"
      else None
  in
  match (w, it.Gen.kind) with
  | Gen.Hot_compare, _ -> (
    if timed && Daemon.header r "x-cache" <> Some "hit" then Some "hot_compare request missed the LRU"
    else
      match Mutex.protect (fst first_bodies) (fun () ->
          match Hashtbl.find_opt (snd first_bodies) it.Gen.body with
          | Some b -> Some b
          | None ->
            Hashtbl.add (snd first_bodies) it.Gen.body r.Daemon.body;
            None)
      with
      | Some b when b <> r.Daemon.body -> Some "hit body differs from the first body for its key"
      | _ -> None)
  | Gen.Cold_compare, _ ->
    if Daemon.header r "x-cache" <> Some "miss" then Some "cold_compare request hit the LRU" else None
  | Gen.Zipf_compare, _ -> None
  | Gen.Session_edit, _ -> session_state ()

(* Closed loop: each connection sends its next request only after the
   previous reply. Compare workloads share one stream, so [next] is taken
   under a lock. *)
let drive w ~port ~conns ~next ~budget ~timed ~first_bodies =
  let lock = Mutex.create () in
  let issued = Atomic.make 0 in
  let tallies = Array.init (Array.length conns) (fun _ -> tally ()) in
  let deadline = match budget with Seconds s -> Daemon.now_s () +. s | Requests _ -> 0. in
  let go c () =
    let tl = tallies.(c) in
    let more () =
      match budget with
      | Seconds _ -> Daemon.now_s () < deadline
      | Requests n -> Atomic.fetch_and_add issued 1 < n
    in
    while more () do
      let it = Mutex.protect lock (fun () -> next c) in
      let t0 = Daemon.now_s () in
      let r =
        try Ok (Daemon.call conns.(c) ~meth:it.Gen.meth ~target:it.Gen.target ~body:it.Gen.body)
        with e -> Error e
      in
      let t1 = Daemon.now_s () in
      tl.attempted <- tl.attempted + 1;
      tl.last_s <- t1;
      match r with
      | Error e ->
        tl.transport <- tl.transport + 1;
        note tl ("transport: " ^ Printexc.to_string e);
        Daemon.close conns.(c);
        conns.(c) <- Daemon.connect port
      | Ok r when r.Daemon.status >= 300 ->
        tl.non2xx <- tl.non2xx + 1;
        note tl (Printf.sprintf "%s %s -> %d %s" it.Gen.meth it.Gen.target r.Daemon.status r.Daemon.body)
      | Ok r -> (
        tl.ok <- tl.ok + 1;
        let ms = (t1 -. t0) *. 1e3 in
        Stats.push tl.lat ms;
        let cls = class_of it r in
        (match Hashtbl.find_opt tl.classes cls with
        | Some v -> Stats.push v ms
        | None ->
          let v = Stats.vec () in
          Stats.push v ms;
          Hashtbl.add tl.classes cls v);
        (match it.Gen.kind with
        | Gen.Mutation _ -> tl.mutations <- tl.mutations + 1
        | _ -> ());
        if it.Gen.sample then tl.samples <- (it, r.Daemon.body) :: tl.samples;
        match check w ~first_bodies ~timed it r with
        | None -> ()
        | Some msg ->
          tl.bad <- tl.bad + 1;
          note tl (Printf.sprintf "%s %s: %s" it.Gen.meth it.Gen.target msg))
    done
  in
  let start = Daemon.now_s () in
  let threads = Array.mapi (fun c _ -> Thread.create (go c) ()) conns in
  Array.iter Thread.join threads;
  let stop = Array.fold_left (fun m tl -> Float.max m tl.last_s) start tallies in
  (Array.to_list tallies, stop -. start)

let sum_by f (tallies : tally list) = List.fold_left (fun acc tl -> acc + f tl) 0 tallies

let class_samples tallies cls =
  Stats.concat (List.filter_map (fun tl -> Hashtbl.find_opt tl.classes cls) tallies)

(* ---- Server state --------------------------------------------------------------- *)

let server_counters port =
  Daemon.counters (Daemon.call_once port ~meth:"GET" ~target:"/metrics" ~body:"")

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- Shared set-up ------------------------------------------------------------------ *)

let pipelines =
  lazy
    (List.map
       (fun name ->
         (name, Pipeline.create (Option.get (Dataset.by_name name)).Dataset.document))
       Dataset.names)

(* The in-process oracle: the batch pipeline's rendering of a /compare
   body, which the daemon's answer must equal up to [elapsed_s]. *)
let oracle_matches body reply_body =
  let creq = Gen.decode_compare body in
  match
    Pipeline.compare ~config:(Api.to_config creq) ?select:creq.Api.select ~top:creq.Api.top
      (List.assoc creq.Api.dataset (Lazy.force pipelines))
      ~keywords:creq.Api.keywords ~size_bound:creq.Api.size_bound
  with
  | Error _ -> false
  | Ok c ->
    Replay.without_elapsed (Json.to_string (Api.json_of_comparison c))
    = Replay.without_elapsed reply_body

let session_id (r : Daemon.reply) =
  match Option.bind (Json.member "id" (Daemon.json_of_reply r)) Json.to_str with
  | Some id when r.Daemon.status = 201 -> id
  | _ -> failwith (Printf.sprintf "session create answered %d: %s" r.Daemon.status r.Daemon.body)

let create_sessions (call : Gen.call) specs =
  Array.map
    (fun spec ->
      let it = Gen.create_item spec in
      (session_id (call ~meth:it.Gen.meth ~target:it.Gen.target ~body:it.Gen.body), spec))
    specs

let setup_workload o (call : Gen.call) =
  let catalog = Gen.catalog call in
  let sessions =
    match o.workload with
    | Gen.Session_edit ->
      create_sessions call (Gen.session_specs catalog ~seed:o.seed ~count:Gen.sessions_per_run)
    | _ -> [||]
  in
  (catalog, sessions)

(* Input stats of the stream's first 2,000 requests, and the assertion
   that the same seed gives a byte-identical stream. *)
let describe_inputs o ~catalog ~sessions =
  let prefix () =
    Gen.prefix o.workload ~seed:o.seed ~catalog ~sessions ~nconn 2000
  in
  let a = prefix () in
  if List.map Gen.wire a <> List.map Gen.wire (prefix ()) then
    failwith "generator: the same seed gave two different streams";
  say "inputs (%s, seed %d, first 2000): %s" (Gen.name o.workload) o.seed (Gen.describe a);
  a

(* ---- Driving a daemon ----------------------------------------------------------------- *)

(* Failed requests and checks, with the first few messages. *)
type faults = { mutable count : int; mutable messages : string list }

let faults () = { count = 0; messages = [] }

let fail ?(n = 1) f msg =
  f.count <- f.count + n;
  if List.length f.messages < 10 then f.messages <- msg :: f.messages

(* The failures of a phase's requests. *)
let absorb f tallies =
  let n = sum_by failed tallies in
  if n > 0 then
    fail ~n f (String.concat "; " (List.concat_map (fun tl -> List.rev tl.notes) tallies))

type result = {
  metrics : (string * float * string) list;
  requests : int;  (* attempted *)
  faults : faults;
}

type exercised = {
  prefix : Gen.item list;
  sessions : (string * Gen.session_spec) array;
  first_bodies : Mutex.t * (string, string) Hashtbl.t;
  tallies : tally list;  (* the timed window's *)
  sent : int;  (* requests attempted, warm-up included *)
  window_s : float;
  before : Daemon.counters;
  after : Daemon.counters;
}

(* Set the workload up on a running daemon, warm it up and drive the
   timed window. Counters are read between the phases, when no request is
   in flight. Failed requests and broken write-path accounting — one
   journal append per acknowledged mutation — go to [f]. *)
let exercise o (d : Daemon.t) ~warmup ~window f =
  let port = d.Daemon.port in
  let catalog, sessions =
    setup_workload o (fun ~meth ~target ~body -> Daemon.call_once port ~meth ~target ~body)
  in
  let prefix = describe_inputs o ~catalog ~sessions in
  let next = Gen.make o.workload ~seed:o.seed ~catalog ~sessions ~nconn in
  let conns = Array.init nconn (fun _ -> Daemon.connect port) in
  let first_bodies = (Mutex.create (), Hashtbl.create 32) in
  let warm, _ = drive o.workload ~port ~conns ~next ~budget:warmup ~timed:false ~first_bodies in
  let before = server_counters port in
  let tallies, window_s =
    drive o.workload ~port ~conns ~next ~budget:window ~timed:true ~first_bodies
  in
  let after = server_counters port in
  Array.iter Daemon.close conns;
  absorb f warm;
  absorb f tallies;
  let mutations = sum_by (fun (tl : tally) -> tl.mutations) tallies in
  let appended = after.journal_appends - before.journal_appends in
  if o.workload = Gen.Session_edit && appended <> mutations then
    fail f (Printf.sprintf "journal_appends grew by %d for %d acknowledged mutations" appended mutations);
  let sent = sum_by (fun (tl : tally) -> tl.attempted) (warm @ tallies) in
  { prefix; sessions; first_bodies; tallies; sent; window_s; before; after }

(* ---- --trace 0: end-to-end metrics ------------------------------------------------- *)

let run_e2e o ~warmup ~window ~setup_cycles =
  let dir = run_dir o "e2e" in
  let state = Filename.concat dir "state" in
  let args = Gen.daemon_args o.workload ~state_dir:state in
  let f = faults () in
  (* set-up: spawn to GET /ready 200, [setup_cycles] times on a fresh
     state. The measured daemon is the ceil(n/2)-th boot and the rest come
     after its window, so the cycles sample the host's speed over the
     whole run rather than over two seconds of it. *)
  let boot () =
    rm_rf state;
    Daemon.spawn ~exe:o.serve_exe args
  in
  let cycles n =
    List.init n (fun _ ->
        let d, s = boot () in
        Daemon.kill d;
        s)
  in
  let first = cycles ((setup_cycles - 1) / 2) in
  let daemon, measured = boot () in
  let x = exercise o daemon ~warmup ~window f in
  let rss = Daemon.peak_rss_mb daemon in
  Daemon.stop daemon;
  let setup_times = first @ (measured :: cycles (setup_cycles / 2)) in
  rm_rf dir;
  (* oracle checks, in-process, after the daemon is gone *)
  let samples = List.concat_map (fun tl -> tl.samples) x.tallies in
  List.iter
    (fun ((it : Gen.item), body) ->
      if not (oracle_matches it.Gen.body body) then
        fail f ("differs from the in-process pipeline: " ^ it.Gen.body))
    samples;
  if o.workload = Gen.Hot_compare then
    Hashtbl.iter
      (fun req body ->
        if not (oracle_matches req body) then fail f ("differs from the in-process pipeline: " ^ req))
      (snd x.first_bodies);
  let tallies = x.tallies and before = x.before and after = x.after in
  let lat = Stats.sorted (Stats.concat (List.map (fun tl -> tl.lat) tallies)) in
  let ok = sum_by (fun (tl : tally) -> tl.ok) tallies in
  let attempted = sum_by (fun (tl : tally) -> tl.attempted) tallies in
  let p99 = Stats.quantile_sorted lat 0.99 in
  let beyond = Array.fold_left (fun n x -> if x > p99 then n + 1 else n) 0 lat in
  say "window: %.2f s, %d attempted, %d ok, %d non-2xx, %d transport errors, %d failed checks, %d oracle samples"
    x.window_s attempted ok (sum_by (fun (tl : tally) -> tl.non2xx) tallies)
    (sum_by (fun (tl : tally) -> tl.transport) tallies) (sum_by (fun (tl : tally) -> tl.bad) tallies)
    (List.length samples);
  say "latency: p50 over %d samples, p99 with %d samples beyond it" (Array.length lat) beyond;
  List.iter
    (fun cls ->
      let a = class_samples tallies cls in
      if Array.length a > 0 then
        say "  %-9s n=%-7d p50 %.4f ms  p99 %.4f ms" cls (Array.length a) (Stats.median a)
          (Stats.quantile a 0.99))
    [ "hit"; "miss"; "get"; "mutation" ];
  say "error_ratio: %.6f" (ratio f.count (max 1 attempted));
  say "server: lru hit ratio %.4f, context builds %d reused / %d full, journal +%d appends, +%d snapshots"
    (ratio (after.lru_hits - before.lru_hits)
       (after.lru_hits - before.lru_hits + after.lru_misses - before.lru_misses))
    (after.ctx_reused - before.ctx_reused) (after.ctx_built - before.ctx_built)
    (after.journal_appends - before.journal_appends) (after.snapshots - before.snapshots);
  say "setup_s cycles: %s" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  {
    metrics =
      [
        ("throughput_rps", float_of_int ok /. x.window_s, "1/s");
        ("latency_p50_ms", Stats.quantile_sorted lat 0.5, "ms");
        ("latency_p99_ms", p99, "ms");
        ("setup_s", Stats.median (Array.of_list setup_times), "s");
        ("server_rss_mb", rss, "MiB");
      ];
    requests = x.sent;
    faults = f;
  }

(* ---- --trace 1: per-layer metrics ------------------------------------------------------ *)

let make_server o ~state_dir =
  let server =
    match o.workload with
    | Gen.Session_edit -> Server.create ~state_dir ()
    | Gen.Hot_compare | Gen.Cold_compare | Gen.Zipf_compare -> Server.create ()
  in
  Server.recover server;
  server

(* The same Server.handle loop on two fresh servers in lockstep: each
   request goes to both, one call bare and one wrapped in the traced run's
   instrumentation (span + GC reads), alternating which goes first. Both
   servers see the same requests, so their caches agree, and the host's
   speed swings hit both sides alike. *)
let trace_overhead_pct o ~dir items =
  let server name = make_server o ~state_dir:(Filename.concat dir name) in
  let traced = server "overhead-on" and bare = server "overhead-off" in
  let scratch = Trace.create ~capacity:(List.length items + 1) in
  let on = ref 0 and off = ref 0 in
  let timed total f =
    let t0 = Trace.now_ns () in
    f ();
    total := !total + (Trace.now_ns () - t0)
  in
  List.iteri
    (fun req (it : Gen.item) ->
      let request = Daemon.request_of ~meth:it.Gen.meth ~target:it.Gen.target ~body:it.Gen.body in
      let with_spans () =
        ignore (Replay.gc_words ());
        let id = Trace.start scratch ~req "server.handle" in
        ignore (Server.handle traced request);
        Trace.stop scratch id;
        ignore (Replay.gc_words ())
      in
      let without () = ignore (Server.handle bare request) in
      if req mod 2 = 0 then begin
        timed on with_spans;
        timed off without
      end
      else begin
        timed off without;
        timed on with_spans
      end)
    items;
  100. *. float_of_int (!on - !off) /. float_of_int !off

(* What a restart must read back: every session on session_edit, else the
   first 16 distinct requests of the stream. *)
let verification_set o ~prefix ~sessions =
  match o.workload with
  | Gen.Session_edit ->
    Array.to_list (Array.map (fun (id, _) -> Gen.get_item id) sessions)
  | Gen.Hot_compare | Gen.Cold_compare | Gen.Zipf_compare ->
    List.fold_left
      (fun acc (it : Gen.item) ->
        if List.length acc >= 16 || List.exists (fun (x : Gen.item) -> x.Gen.body = it.Gen.body) acc
        then acc
        else it :: acc)
      [] prefix
    |> List.rev

let fetch_bodies port items =
  let conn = Daemon.connect port in
  Fun.protect ~finally:(fun () -> Daemon.close conn) (fun () ->
      List.map
        (fun (it : Gen.item) ->
          let r = Daemon.call conn ~meth:it.Gen.meth ~target:it.Gen.target ~body:it.Gen.body in
          (r.Daemon.status, if it.Gen.kind = Gen.Compare then Replay.without_elapsed r.Daemon.body
                            else r.Daemon.body))
        items)

(* [cycles] times: SIGTERM, respawn on the same flags and state directory,
   GET /ready, then the verification set must read back byte-identical
   (/compare bodies up to elapsed_s). A cycle is timed from the respawn to
   the last verified body. Returns the running daemon and the times. *)
let restart_cycles o d ~args ~verify ~cycles f =
  let expected = fetch_bodies d.Daemon.port verify in
  let d = ref d in
  let times =
    List.init cycles (fun _ ->
        Daemon.stop !d;
        let t0 = Daemon.now_s () in
        let d', _ = Daemon.spawn ~exe:o.serve_exe args in
        d := d';
        let got = fetch_bodies d'.Daemon.port verify in
        let dt = Daemon.now_s () -. t0 in
        List.iter2
          (fun (it : Gen.item) (e, g) ->
            if e <> g || fst e >= 300 then
              fail f (Printf.sprintf "after restart %s %s reads differently" it.Gen.meth it.Gen.target))
          verify (List.combine expected got);
        dt)
  in
  (!d, times)

type phase = { e2e_p50_us : float; delta : Daemon.counters; mutations : int; recover_s : float }

(* The untraced daemon window of a traced run: server counter deltas, the
   end-to-end p50, and restart cycles. *)
let daemon_phase o ~dir ~warmup ~window ~restarts f =
  let args = Gen.daemon_args o.workload ~state_dir:(Filename.concat dir "daemon-state") in
  let d, _ = Daemon.spawn ~exe:o.serve_exe args in
  let x = exercise o d ~warmup ~window f in
  let verify = verification_set o ~prefix:x.prefix ~sessions:x.sessions in
  let d, recover_times = restart_cycles o d ~args ~verify ~cycles:restarts f in
  Daemon.stop d;
  let a = x.after and b = x.before in
  let phase =
    {
      e2e_p50_us = Stats.median (Stats.concat (List.map (fun tl -> tl.lat) x.tallies)) *. 1e3;
      delta =
        {
          Daemon.lru_hits = a.lru_hits - b.lru_hits;
          lru_misses = a.lru_misses - b.lru_misses;
          ctx_reused = a.ctx_reused - b.ctx_reused;
          ctx_built = a.ctx_built - b.ctx_built;
          intern_evictions = a.intern_evictions - b.intern_evictions;
          ctx_bytes_live = a.ctx_bytes_live;
          journal_appends = a.journal_appends - b.journal_appends;
          journal_bytes = a.journal_bytes - b.journal_bytes;
          snapshots = a.snapshots - b.snapshots;
        };
      mutations = sum_by (fun (tl : tally) -> tl.mutations) x.tallies;
      recover_s = Stats.median (Array.of_list recover_times);
    }
  in
  (phase, x.sent)

let engine_spans =
  [ "search.query"; "extract.profiles"; "dod.make_context"; "session.create";
    "algorithm.generate"; "table.build"; "render.json" ]

let per_layer ~tr ~write_tr ~(records : Replay.record list) ~phase ~overhead_pct =
  let p50 ?(tr = tr) name = Stats.median (Trace.selfs tr name) in
  let of_records f = Array.of_list (List.map f records) in
  let fl = float_of_int in
  let n_records = fl (max 1 (List.length records)) in
  let parse = p50 "http.parse" and write = p50 "http.write" in
  let handle = Stats.median (of_records (fun r -> fl r.Replay.handle_ns)) in
  let builds = List.filter (fun (r : Replay.record) -> r.Replay.path = Replay.Build) records in
  let is_build = Hashtbl.create 1024 in
  List.iter (fun (r : Replay.record) -> Hashtbl.replace is_build r.Replay.req ()) builds;
  let engine_ns =
    List.fold_left
      (fun acc name -> acc +. Stats.sum (Trace.selfs ~keep:(Hashtbl.mem is_build) tr name))
      0. engine_spans
  in
  let build_handle_ns = List.fold_left (fun acc (r : Replay.record) -> acc +. fl r.Replay.handle_ns) 0. builds in
  let d = phase.delta in
  let per_mutation x = if phase.mutations = 0 then 0. else fl x /. fl phase.mutations in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. records in
  [
    ("http.parse_us", parse /. 1e3, "us");
    ("http.write_us", write /. 1e3, "us");
    ("http.response_kb", Stats.mean (of_records (fun r -> fl r.Replay.body_bytes)) /. 1024., "KiB");
    ("server.handle_us", handle /. 1e3, "us");
    ( "server.dispatch_self_us",
      Stats.median (of_records (fun r -> fl (r.Replay.handle_ns - r.Replay.inner_ns))) /. 1e3,
      "us" );
    ("transport.residual_us", phase.e2e_p50_us -. ((parse +. handle +. write) /. 1e3), "us");
    ("api.decode_us", p50 "api.decode" /. 1e3, "us");
    ("api.key_us", p50 "api.key" /. 1e3, "us");
    ("lru.hit_ratio", ratio d.lru_hits (d.lru_hits + d.lru_misses), "ratio");
    ("intern.reuse_ratio", ratio d.ctx_reused (d.ctx_reused + d.ctx_built), "ratio");
    ("intern.evictions", fl d.intern_evictions, "count");
    ("intern.bytes_live", fl d.ctx_bytes_live, "B");
    ("search.query_ms", p50 "search.query" /. 1e6, "ms");
    ("extract.profiles_ms", p50 "extract.profiles" /. 1e6, "ms");
    ("dod.make_context_ms", p50 "dod.make_context" /. 1e6, "ms");
    ( "dod.pairs_per_req",
      Stats.mean (Array.of_list (List.map (fun (r : Replay.record) -> fl r.Replay.pairs) builds)),
      "pairs/req" );
    ("algorithm.generate_ms", p50 "algorithm.generate" /. 1e6, "ms");
    ("table.build_ms", p50 "table.build" /. 1e6, "ms");
    ("render.json_ms", p50 "render.json" /. 1e6, "ms");
    ("engine.share", (if build_handle_ns = 0. then 0. else engine_ns /. build_handle_ns), "ratio");
    ("session.translate_us", p50 ~tr:write_tr "session.translate" /. 1e3, "us");
    ("session.apply_ms", p50 ~tr:write_tr "session.apply" /. 1e6, "ms");
    ("journal.append_us", p50 ~tr:write_tr "journal.append" /. 1e3, "us");
    ("journal.appends_per_mutation", per_mutation d.journal_appends, "ratio");
    ("journal.bytes_per_mutation", per_mutation d.journal_bytes, "B");
    ("journal.snapshots", fl d.snapshots, "count");
    ("restart.recover_s", phase.recover_s, "s");
    ("gc.minor_words_per_req", total (fun r -> r.Replay.minor_words) /. n_records, "words/req");
    ("gc.major_words_per_req", total (fun r -> r.Replay.major_words) /. n_records, "words/req");
    ( "gc.major_collections_per_kreq",
      1000. *. total (fun r -> fl r.Replay.major_collections) /. n_records,
      "count/kreq" );
    ("trace.overhead_pct", overhead_pct, "%");
  ]

(* The traced replay of [workload]'s session set-up ([count] sessions) plus
   its stream's first [n] requests on [server], into a span recorder of its
   own. Returns the replay, the catalog and the items in order. *)
let replay_stream o ~dir ~server ~name ~workload ~count ~nconn ~n =
  let tr = Trace.create ~capacity:((n + count + 16) * 32) in
  let rp =
    Replay.create ~tr ~server ~pipelines:(Lazy.force pipelines)
      ~journal_path:(Filename.concat dir (name ^ "-journal"))
  in
  let req = ref 0 in
  let run it =
    let r = Replay.request rp ~req:!req it in
    incr req;
    r
  in
  let catalog = Gen.catalog (Daemon.handle server) in
  let specs = Gen.session_specs catalog ~seed:o.seed ~count in
  let creates = Array.map Gen.create_item specs in
  let sessions = Array.mapi (fun i it -> (session_id (run it), specs.(i))) creates in
  let items = Gen.prefix workload ~seed:o.seed ~catalog ~sessions ~nconn n in
  List.iter (fun it -> ignore (run it)) items;
  Replay.close rp;
  (rp, catalog, Array.to_list creates @ items)

(* The session and journal layer metrics are times, and every time the
   benchmark reports is measured on every run, never a constant
   placeholder such as the 0 the compare workloads would give: they make
   no session mutation. There these layers are timed on a fixed probe
   instead, 4 sessions and 128 session_edit requests on a second server.
   The probe does not follow the workload, so on the compare workloads
   these metrics read flat. *)
let write_path_probe o ~dir ~catalog =
  let specs = Gen.session_specs catalog ~seed:o.seed ~count:4 in
  let server =
    Server.create ~datasets:[ specs.(0).Gen.sq.Gen.dataset ]
      ~state_dir:(Filename.concat dir "probe-state") ()
  in
  Server.recover server;
  let rp, _, _ =
    replay_stream o ~dir ~server ~name:"probe" ~workload:Gen.Session_edit ~count:4 ~nconn:1
      ~n:128
  in
  rp

(* The workload's traced replay, on an in-process server created with the
   daemon's flags, and the replay whose spans time the write path. Returns
   both, every failed check, and the workload's items in order. *)
let traced_pass o ~dir ~n =
  let server = make_server o ~state_dir:(Filename.concat dir "traced-state") in
  let sessions = o.workload = Gen.Session_edit in
  let rp, catalog, items =
    replay_stream o ~dir ~server ~name:"replay" ~workload:o.workload
      ~count:(if sessions then Gen.sessions_per_run else 0)
      ~nconn ~n
  in
  let write = if sessions then rp else write_path_probe o ~dir ~catalog in
  let failures (r : Replay.t) = List.rev r.Replay.failures in
  (rp, write, failures rp @ (if write == rp then [] else failures write), items)

let path_name = function
  | Replay.Hit -> "hit"
  | Replay.Reuse -> "reuse"
  | Replay.Build -> "build"
  | Replay.Plain -> "plain"

let print_trace_summary tr (records : Replay.record list) =
  let paths = Hashtbl.create 4 in
  List.iter
    (fun (r : Replay.record) ->
      let k = path_name r.Replay.path in
      Hashtbl.replace paths k (1 + Option.value ~default:0 (Hashtbl.find_opt paths k)))
    records;
  say "traced requests by server path: %s"
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%s %d" k (Option.value ~default:0 (Hashtbl.find_opt paths k)))
          [ "hit"; "reuse"; "build"; "plain" ]));
  say "  %-22s %8s %14s %8s" "span" "count" "p50 self us" "share";
  List.iter
    (fun (name, count, p50, share) ->
      say "  %-22s %8d %14.3f %7.2f%%" name count (p50 /. 1e3) (100. *. share))
    (Trace.summary tr)

let run_trace o ~warmup ~window ~restarts ~n ~overhead_n =
  let dir = run_dir o "trace" in
  let f = faults () in
  let phase, sent = daemon_phase o ~dir ~warmup ~window ~restarts f in
  let rp, write, mismatches, items = traced_pass o ~dir ~n in
  List.iter (fail f) mismatches;
  let tr = rp.Replay.tr and records = rp.Replay.records in
  let overhead =
    if overhead_n = 0 then 0.
    else trace_overhead_pct o ~dir (List.filteri (fun i _ -> i < overhead_n) items)
  in
  let jsonl =
    Filename.concat o.workdir (Printf.sprintf "trace-%s-s%d.jsonl" (Gen.name o.workload) o.seed)
  in
  Trace.write_jsonl tr jsonl;
  rm_rf dir;
  say "daemon phase: %d requests, end-to-end p50 %.2f us" sent phase.e2e_p50_us;
  say "traced: %d requests, %d spans -> %s" (List.length records) tr.Trace.len jsonl;
  print_trace_summary tr records;
  {
    metrics = per_layer ~tr ~write_tr:write.Replay.tr ~records ~phase ~overhead_pct:overhead;
    requests = sent + List.length records;
    faults = f;
  }

(* ---- Smoke (dune runtest) ------------------------------------------------------------ *)

let smoke o =
  let ok =
    List.for_all
      (fun w ->
        let o = { o with workload = w } in
        say "== %s" (Gen.name w);
        let e = run_e2e o ~warmup:(Requests 20) ~window:(Requests 200) ~setup_cycles:1 in
        let t =
          run_trace o ~warmup:(Requests 20) ~window:(Requests 50) ~restarts:1 ~n:200 ~overhead_n:0
        in
        List.iter (say "  FAIL %s") (List.rev e.faults.messages @ List.rev t.faults.messages);
        e.faults.count = 0 && t.faults.count = 0)
      Gen.workloads
  in
  say "smoke: %s" (if ok then "ok" else "FAILED");
  ok

(* ---- Entry point ---------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let serve_exe = ref "" and workdir = ref ".e2ebench" and smoke_mode = ref false in
  let usage =
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH [--workdir DIR]\n\
     e2e.exe --smoke --serve-exe PATH\n\
     workloads: "
    ^ String.concat ", " (List.map Gen.name Gen.workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH the xsact-serve binary");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory (default .e2ebench)");
      ("--smoke", Arg.Set smoke_mode, " every workload briefly, checks only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline ("e2e: " ^ msg);
    exit 2
  in
  if !serve_exe = "" || not (Sys.file_exists !serve_exe) then die "--serve-exe must name the daemon";
  at_exit Daemon.cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let o w = { workload = w; seed = !seed; seconds = !seconds; serve_exe = !serve_exe; workdir = !workdir } in
  mkdir_p !workdir;
  match
    if !smoke_mode then if smoke (o Gen.Hot_compare) then 0 else 1
    else
      let w =
        match Gen.of_name !workload with Some w -> w | None -> die ("unknown workload: " ^ !workload)
      in
      let o = o w in
      let r =
        match !trace with
        | 0 ->
          run_e2e o ~warmup:(Seconds 2.) ~window:(Seconds o.seconds) ~setup_cycles:7
        | 1 ->
          run_trace o ~warmup:(Seconds 1.) ~window:(Seconds (Float.max 2. (o.seconds /. 4.)))
            ~restarts:3 ~n:2000 ~overhead_n:500
        | _ -> die "--trace takes 0 or 1"
      in
      List.iter
        (fun (name, v, _) -> if Float.is_nan v then fail r.faults (name ^ " has no samples"))
        r.metrics;
      List.iter (say "FAIL %s") (List.rev r.faults.messages);
      print_metrics r.metrics;
      let correct = r.faults.count = 0 in
      result_line ~correct ~attempted:(max 1 r.requests) ~failed:r.faults.count r.metrics;
      if correct then 0 else 1
  with
  | code -> exit code
  | exception e ->
    prerr_endline ("e2e: " ^ Printexc.to_string e);
    exit 1
