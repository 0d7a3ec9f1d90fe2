(* The traced run: single-threaded and in-process.

   For every request of a workload's stream the bench (1) times
   [Server.handle] as span [server.handle] with its [Gc.quick_stat]
   deltas, then (2) replays the same request through the public functions
   of each layer, as children of a [replay] span — [Http.read_request],
   decode and canonical key, the LRU and intern lookups, search,
   extraction, [Dod.make_context], generation, [Table.build], rendering,
   the session and journal calls, and [Http.write_response] — following
   the path the server took (read from [X-Cache] and the server's own
   counter deltas), and (3) requires the replay's body to equal the
   server's, ignoring [elapsed_s]. A replay that cannot follow the server
   or disagrees with it is a failed check. *)

module Journal = Xsact_persist.Journal

type path = Hit | Reuse | Build | Plain

type mirror_session = {
  ms_dataset : string;
  mutable ms_req : Api.compare_request;
  mutable ms_ranks : int list;
  ms_results : Search.result list;
  mutable ms_session : Session.t;
}

(* Per-request record of the traced run. *)
type record = {
  req : int;
  path : path;
  handle_ns : int;
  inner_ns : int;  (* replay minus its HTTP parse and write *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  body_bytes : int;
  pairs : int;  (* result pairs of the contexts the replay built *)
}

type t = {
  tr : Trace.t;
  server : Server.t;
  pipelines : (string * Pipeline.t) list;
  lru : string Lru.t;  (* full key -> replayed body *)
  intern : Intern.t;  (* context key -> /compare-built context *)
  session_ctx : (string, Result_profile.t array * Dod.context) Hashtbl.t;
  sessions : (string, mirror_session) Hashtbl.t;
  journal : Journal.t;
  (* a socketpair: the replay reads requests and writes responses on the
     [srv_*] end; the bench feeds and drains the [cli_*] end untimed *)
  cli_in : In_channel.t;
  cli_out : Out_channel.t;
  srv_in : In_channel.t;
  srv_out : Out_channel.t;
  fds : Unix.file_descr list;
  mutable records : record list;
  mutable failures : string list;
  mutable pairs_built : int;  (* this request's, so far *)
}

(* The bench-side LRU and intern table are larger than the server's (128
   and 32) and see the same lookups and inserts, so by LRU inclusion they
   hold everything the server can still serve from its own. *)
let create ~tr ~server ~pipelines ~journal_path =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter
    (fun fd ->
      Unix.setsockopt_int fd Unix.SO_SNDBUF (4 lsl 20);
      Unix.setsockopt_int fd Unix.SO_RCVBUF (4 lsl 20))
    [ a; b ];
  let clock = ref 0. in
  {
    tr;
    server;
    pipelines;
    lru = Lru.create ~capacity:1024;
    intern =
      Intern.create ~cache_capacity:256
        ~now:(fun () ->
          clock := !clock +. 1.;
          !clock)
        ();
    session_ctx = Hashtbl.create 64;
    sessions = Hashtbl.create 64;
    journal = Journal.open_append ~fsync:(Journal.Interval 0.1) journal_path;
    cli_in = Unix.in_channel_of_descr a;
    cli_out = Unix.out_channel_of_descr a;
    srv_in = Unix.in_channel_of_descr b;
    srv_out = Unix.out_channel_of_descr b;
    fds = [ a; b ];
    records = [];
    failures = [];
    pairs_built = 0;
  }

let close t =
  Journal.close t.journal;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fds

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

let get_ok what = function
  | Ok v -> v
  | Error e -> diverged "%s failed: %s" what (Error.to_string e)

let counters server =
  Daemon.counters (Daemon.handle server ~meth:"GET" ~target:"/metrics" ~body:"")

(* ---- Layer replays --------------------------------------------------------- *)

let pipeline t dataset =
  match List.assoc_opt dataset t.pipelines with
  | Some p -> p
  | None -> diverged "no pipeline for %s" dataset

let choose results (creq : Api.compare_request) =
  match creq.Api.select with
  | Some ranks -> List.map (fun rank -> List.nth results (rank - 1)) ranks
  | None -> List.filteri (fun i _ -> i < creq.Api.top) results

let extract t ~req p keywords chosen =
  Trace.span t.tr ~req "extract.profiles" (fun () ->
      Array.of_list (List.map (Pipeline.profile_of ~keywords p) chosen))

let make_context t ~req config profiles =
  let n = Array.length profiles in
  t.pairs_built <- t.pairs_built + (n * (n - 1) / 2);
  Trace.span t.tr ~req "dod.make_context" (fun () ->
      Dod.make_context ~params:config.Config.params ~weight:config.Config.weight
        ?domains:config.Config.domains profiles)

(* A context the server reused: a /compare-built one (the intern mirror)
   or a live session's. *)
let reused_context t ~req key =
  match Trace.span t.tr ~req "intern.peek" (fun () -> Intern.peek t.intern key) with
  | Some pc -> pc
  | None -> (
    match Hashtbl.find_opt t.session_ctx key with
    | Some pc -> pc
    | None -> diverged "server reused a context the replay never built")

(* Pipeline.compare_profiles past the context: generate, table. *)
let generate t ~req (creq : Api.compare_request) profiles context =
  let config = Api.to_config creq in
  let t0 = Unix.gettimeofday () in
  let dfss =
    Trace.span t.tr ~req "algorithm.generate" (fun () ->
        fst
          (Algorithm.generate_within ?domains:config.Config.domains
             config.Config.algorithm context ~limit:creq.Api.size_bound))
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let table, dod =
    Trace.span t.tr ~req "table.build" (fun () ->
        (Table.build ~size_bound:creq.Api.size_bound context dfss, Dod.total context dfss))
  in
  {
    Pipeline.keywords = creq.Api.keywords;
    profiles;
    context;
    dfss;
    dod;
    table;
    algorithm = config.Config.algorithm;
    size_bound = creq.Api.size_bound;
    elapsed_s;
    degraded = false;
  }

let decode t ~req body decoder =
  Trace.span t.tr ~req "api.decode" (fun () ->
      match Json.of_string body with
      | Error e -> diverged "request body: %s" e
      | Ok j -> decoder j)

let decode_compare t ~req body =
  decode t ~req body (fun j ->
      match Api.decode_compare j with Ok r -> r | Error e -> diverged "decode: %s" e)

let key t ~req scope creq =
  Trace.span t.tr ~req "api.key" (fun () -> Api.canonical_key ~scope creq)

let replay_compare t ~req body path =
  let creq = decode_compare t ~req body in
  let full = key t ~req Api.Full creq in
  let cached = Trace.span t.tr ~req "lru.find" (fun () -> Lru.find t.lru full) in
  match (path, cached) with
  | Hit, Some body -> body
  | Hit, None -> diverged "server hit a key the replay never rendered"
  | (Reuse | Build | Plain), _ ->
    let ctx = key t ~req Api.Context creq in
    let profiles, context =
      if path = Reuse then reused_context t ~req ctx
      else begin
        ignore (Trace.span t.tr ~req "intern.peek" (fun () -> Intern.peek t.intern ctx));
        let p = pipeline t creq.Api.dataset in
        let results =
          Trace.span t.tr ~req "search.query" (fun () -> Pipeline.search p creq.Api.keywords)
        in
        let profiles = extract t ~req p creq.Api.keywords (choose results creq) in
        let context = make_context t ~req (Api.to_config creq) profiles in
        Intern.insert_cached t.intern ctx ~profiles ~context;
        (profiles, context)
      end
    in
    let comparison = generate t ~req creq profiles context in
    let body =
      Trace.span t.tr ~req "render.json" (fun () ->
          Json.to_string (Api.json_of_comparison comparison))
    in
    Lru.add t.lru full body;
    body

let summary_fields id ms =
  let s = ms.ms_session in
  [
    ("id", Json.String id);
    ("dataset", Json.String ms.ms_dataset);
    ("q", Json.String ms.ms_req.Api.keywords);
    ("ranks", Json.List (List.map (fun r -> Json.Int r) ms.ms_ranks));
    ("size_bound", Json.Int (Session.size_bound s));
    ("dod", Json.Int (Session.dod s));
    ("algorithm", Json.String (Algorithm.to_string (Session.config s).Config.algorithm));
    ("runs", Json.Int (Session.stats s));
  ]

let session_key ms =
  Api.canonical_key ~scope:Api.Context { ms.ms_req with Api.select = Some ms.ms_ranks }

let publish t ms =
  Hashtbl.replace t.session_ctx (session_key ms)
    (Session.profiles ms.ms_session, Session.context ms.ms_session)

let render t ~req fields =
  Trace.span t.tr ~req "render.json" (fun () -> Json.to_string (Json.Obj fields))

let replay_create t ~req body path (reply : Daemon.reply) =
  let creq = decode_compare t ~req body in
  let p = pipeline t creq.Api.dataset in
  let results =
    Trace.span t.tr ~req "search.query" (fun () -> Pipeline.search p creq.Api.keywords)
  in
  let ranks =
    match creq.Api.select with
    | Some r -> r
    | None -> List.init (min creq.Api.top (List.length results)) (fun i -> i + 1)
  in
  let creq = { creq with Api.select = Some ranks } in
  let ctx = key t ~req Api.Context creq in
  let config = Api.to_config creq in
  let profiles, context =
    if path = Reuse then reused_context t ~req ctx
    else
      let profiles = extract t ~req p creq.Api.keywords (choose results creq) in
      (profiles, make_context t ~req config profiles)
  in
  let session =
    Trace.span t.tr ~req "session.create" (fun () ->
        Session.create ~config ~context ~size_bound:creq.Api.size_bound
          (Array.to_list profiles))
    |> get_ok "Session.create"
  in
  let id =
    match Option.bind (Json.member "id" (Daemon.json_of_reply reply)) Json.to_str with
    | Some id -> id
    | None -> diverged "create reply without an id"
  in
  let ms =
    {
      ms_dataset = creq.Api.dataset;
      ms_req = creq;
      ms_ranks = ranks;
      ms_results = results;
      ms_session = session;
    }
  in
  Hashtbl.replace t.sessions id ms;
  publish t ms;
  render t ~req (summary_fields id ms)

let session_of t target =
  match Http.split_target target with
  | "session" :: id :: _, _ -> (
    match Hashtbl.find_opt t.sessions id with
    | Some ms -> (id, ms)
    | None -> diverged "unknown session %s" id)
  | _ -> diverged "not a session target: %s" target

let replay_mutation t ~req (it : Gen.item) origin ~journal_delta =
  let id, ms = session_of t it.Gen.target in
  let ops =
    decode t ~req it.Gen.body (fun j ->
        let r =
          match origin with
          | "apply" -> Api.decode_ops j
          | "params" -> Result.map (fun p -> [ Api.Op_params p ]) (Api.decode_params_patch j)
          | op -> Result.map (fun o -> [ o ]) (Api.decode_single_op ~op j)
        in
        match r with Ok ops -> ops | Error e -> diverged "ops: %s" (Api.message_of_op_error e))
  in
  let p = pipeline t ms.ms_dataset in
  let keywords = ms.ms_req.Api.keywords in
  let sops, ranks, creq =
    match
      Trace.span t.tr ~req "session.translate" (fun () ->
          Api.translate_ops ~request:ms.ms_req ~ranks:ms.ms_ranks
            ~available:(List.length ms.ms_results)
            ~profile_of:(fun rank ->
              Pipeline.profile_of ~keywords p (List.nth ms.ms_results (rank - 1)))
            ~config_of:Api.to_config ops)
    with
    | Ok v -> v
    | Error _ -> diverged "translate_ops rejected a generated batch"
  in
  let session =
    Trace.span t.tr ~req "session.apply" (fun () -> Session.apply ms.ms_session sops)
    |> get_ok "Session.apply"
  in
  ms.ms_req <- creq;
  ms.ms_ranks <- ranks;
  ms.ms_session <- session;
  publish t ms;
  (* a record of the size the server's journal grew by *)
  let payload = String.make (max 1 (journal_delta - Journal.header_bytes)) 'j' in
  Trace.span t.tr ~req "journal.append" (fun () -> Journal.append t.journal payload);
  render t ~req (summary_fields id ms)

let replay_get t ~req (it : Gen.item) =
  let id, ms = session_of t it.Gen.target in
  let table = Trace.span t.tr ~req "table.build" (fun () -> Session.table ms.ms_session) in
  render t ~req (summary_fields id ms @ [ ("table", Api.json_of_table table) ])

(* ---- One traced request -------------------------------------------------------- *)

(* A /compare body with [elapsed_s] removed, re-rendered — how two
   computations of the same comparison are compared. *)
let without_elapsed body =
  match Json.of_string body with
  | Ok (Json.Obj fields) ->
    Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
  | Ok j -> Json.to_string j
  | Error _ -> body

let same_body (it : Gen.item) a b =
  if it.Gen.kind = Gen.Compare then without_elapsed a = without_elapsed b else a = b

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words, s.Gc.major_collections)

let request t ~req (it : Gen.item) =
  let meth = it.Gen.meth and target = it.Gen.target and body = it.Gen.body in
  let request = Daemon.request_of ~meth ~target ~body in
  t.pairs_built <- 0;
  let needs_counters = it.Gen.kind <> Gen.Get in
  let c0 = if needs_counters then Some (counters t.server) else None in
  let m0, j0, k0 = gc_words () in
  let hs = Trace.start t.tr ~req "server.handle" in
  let resp = Server.handle t.server request in
  Trace.stop t.tr hs;
  let m1, j1, k1 = gc_words () in
  let c1 = if needs_counters then Some (counters t.server) else None in
  let reply = Daemon.reply_of_response resp in
  let delta f = match (c0, c1) with Some a, Some b -> f b - f a | _ -> 0 in
  let path =
    match it.Gen.kind with
    | Gen.Compare when Daemon.header reply "x-cache" = Some "hit" -> Hit
    | Gen.Compare | Gen.Create ->
      if delta (fun c -> c.Daemon.ctx_reused) > 0 then Reuse
      else if delta (fun c -> c.Daemon.ctx_built) > 0 then Build
      else Plain
    | Gen.Get | Gen.Mutation _ -> Plain
  in
  (* the wire bytes go in before the replay span starts *)
  Http.send_request t.cli_out ~host:Daemon.host ~meth
    ?body:(if body = "" then None else Some body)
    target;
  let rs = Trace.start t.tr ~req "replay" in
  let parse_span = ref (-1) and write_span = ref (-1) in
  let replayed =
    match
      let ps = Trace.start t.tr ~req "http.parse" in
      let parsed = Http.read_request t.srv_in in
      Trace.stop t.tr ps;
      parse_span := ps;
      (match parsed with
      | Ok r when r = request -> ()
      | Ok _ -> diverged "Http.read_request parsed a different request"
      | Error _ -> diverged "Http.read_request rejected the request");
      if resp.Http.status >= 300 then diverged "server answered %d" resp.Http.status;
      let out =
        match it.Gen.kind with
        | Gen.Compare -> replay_compare t ~req body path
        | Gen.Create -> replay_create t ~req body path reply
        | Gen.Get -> replay_get t ~req it
        | Gen.Mutation origin ->
          replay_mutation t ~req it origin ~journal_delta:(delta (fun c -> c.Daemon.journal_bytes))
      in
      let ws = Trace.start t.tr ~req "http.write" in
      Http.write_response t.srv_out { resp with Http.resp_body = out };
      Trace.stop t.tr ws;
      write_span := ws;
      out
    with
    | out -> Ok out
    | exception Diverged msg -> Error msg
  in
  Trace.stop t.tr rs;
  if !write_span >= 0 then ignore (Http.read_response t.cli_in)
  else if !parse_span < 0 then ignore (Http.read_request t.srv_in);
  (match replayed with
  | Ok out when same_body it out resp.Http.resp_body -> ()
  | Ok _ ->
    t.failures <-
      Printf.sprintf "request %d (%s %s): replayed body differs from Server.handle's" req meth
        target
      :: t.failures
  | Error msg ->
    t.failures <- Printf.sprintf "request %d (%s %s): %s" req meth target msg :: t.failures);
  let dur id = if id < 0 then 0 else Trace.duration t.tr id in
  t.records <-
    {
      req;
      path;
      handle_ns = Trace.duration t.tr hs;
      inner_ns = Trace.duration t.tr rs - dur !parse_span - dur !write_span;
      minor_words = m1 -. m0;
      major_words = j1 -. j0;
      major_collections = k1 - k0;
      body_bytes = String.length resp.Http.resp_body;
      pairs = t.pairs_built;
    }
    :: t.records;
  reply
