type entry = { dataset : Dataset.t; pipeline : Pipeline.t }

type session_entry = {
  s_dataset : string;
  s_request : Api.compare_request;
  s_results : Search.result list;  (* the full ranked list, for /add *)
  s_ranks : int list;  (* current selection, in column order *)
  s_session : Session.t;
}

(* A stored session is either warm — the resident [Session.t] with its
   live pair-table context — or cold: the recipe (originating request,
   current selection, current bound) that [build_session_entry] rebuilds
   the context from, plus the DFS q-vectors and run count the session
   served. A mutated session's DFSs are a warm-started fixpoint that a
   fresh generation need not reach, so every rewarm restores them and
   neither demotion nor a restart shows in response bytes. Recovery and
   replication install cold cells and the first touch rewarms them, and
   the warm-context memory budget demotes least-recently-used cells back
   to cold. Every read and write of [state] runs under
   [session_update]. *)
type cold_session = {
  c_request : Api.compare_request;
  c_ranks : int list;
  c_size_bound : int;
  c_resume : (int array array * int) option;
      (* the DFS q-vectors and runs it served; [None] for a journal entry
         written without them, which regenerates *)
}

type session_state = Warm of session_entry | Cold of cold_session

(* A cell holds exactly one intern-table reference, on its context key,
   exactly when it is [Warm] on an incremental server. Every transition
   (create, rewarm, demote, mutate, remove) runs under [session_update],
   so each one moves that reference with nothing racing it. *)
type stored_session = { mutable state : session_state }

let resume_of session =
  (Array.map Dfs.to_q_array (Session.dfss session), Session.stats session)

let cold_of_entry se =
  {
    c_request = se.s_request;
    c_ranks = se.s_ranks;
    c_size_bound = Session.size_bound se.s_session;
    c_resume = Some (resume_of se.s_session);
  }

type t = {
  entries : (string * entry) list;
  cache : string Lru.t;  (* full-scope key -> response body; under [lock] *)
  intern : Intern.t;
      (* context-scope key -> the one physical (profiles, context) pair:
         warm sessions pin entries by refcount, /compare reads them
         unpinned — one population under one byte budget. Own leaf lock. *)
  lock : Mutex.t;  (* guards [cache] and [inflight] — O(1) sections only *)
  inflight : (string, unit) Hashtbl.t;  (* compare keys being computed *)
  inflight_done : Condition.t;  (* signalled when an inflight key retires *)
  session_update : Mutex.t;  (* the one lock over session state: every
                                store call, every Warm/Cold transition *)
  metrics : Metrics.t;
  sessions : stored_session Session_store.t;  (* read by [with_sessions] *)
  incremental : bool;  (* delta context maintenance (false = ablation) *)
  max_context_bytes : int option;  (* unified live-context memory budget *)
  default_deadline_ms : int option;  (* per-request compare budget *)
  max_deadline_ms : int;  (* cap on the X-Deadline-Ms override *)
  inflight_now : int Atomic.t;  (* requests currently inside [handle] *)
  mutable threads : int;  (* worker-pool size, recorded for /metrics *)
  (* Durable sessions (DESIGN.md §10). [persist] holds the configuration
     from [create]; [recover] opens the state directory, replays it, fills
     [durability] (from then on the session store's event hook journals
     every mutation) and flips [ready]. Without a state dir the server is
     born ready and the hook stays [None] — the hot path is unchanged. *)
  persist : (string * Xsact_persist.Journal.policy * int) option;
  durability : Durability.t option ref;
  ready : bool Atomic.t;
  (* Failover (DESIGN.md §14). [cluster] is this node's role, fencing
     epoch, winner and current primary: read lock-free, changed only by
     [transition] under [cluster_lock]. [replica_of] is the static
     primary from the command line; [repl_client] the follower's
     replication client (swapped under [lock]; joins happen outside every
     lock). [streams] counts live /v1/replicate streams on this side.
     [peers] is the static membership walked by discovery, election and
     the fencer; [advertise] is this node's HOST:PORT once [start] binds.
     [closing] winds down the fencer and election threads. *)
  cluster : Cluster.t Atomic.t;
  cluster_lock : Mutex.t;
  replica_of : (string * int) option;
  takeover_after : float option;
  repl_client : Replication.client option ref;
  streams : int Atomic.t;
  peers : (string * int) list;
  mutable advertise : (string * int) option;
  closing : bool Atomic.t;
  mutable routes : Router.route list;
  (* Wired up by [start]: depth of the pending-connection queue and the
     overload predicate driving the degradation ladder. Inert (0 / false)
     when handling requests without a running listener, as the unit tests
     do. *)
  mutable queue_depth : unit -> int;
  mutable overloaded : unit -> bool;
}

let dataset_names t = List.map fst t.entries

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let locked t f = with_lock t.lock f

(* The only reader of [t.sessions]: [f] gets the store under
   [session_update]. Code running inside takes the store as an argument
   rather than locking again — OCaml's mutexes raise on a re-lock. *)
let with_sessions t f = with_lock t.session_update (fun () -> f t.sessions)

let cluster t = Atomic.get t.cluster

(* ---- Response helpers -------------------------------------------------- *)

let json_response ?headers ~status j =
  Http.response ?headers ~status (Json.to_string j)

(* Every failure, on every endpoint, is the one envelope
   {"error": {"code", "message"}} — [code] is the stable machine-readable
   name (Api.mli documents the vocabulary), the message stays free-form. *)
let error_response ~status ~code msg =
  Http.response ~status (Api.error_body ~code msg)

let core_error e =
  error_response ~status:(Api.status_of_error e) ~code:(Api.code_of_error e)
    (Error.to_string e)

let op_error_response e =
  error_response
    ~status:(Api.status_of_op_error e)
    ~code:(Api.code_of_op_error e)
    (Api.message_of_op_error e)

let find_entry t name = List.assoc_opt name t.entries

let query_param req name =
  match List.assoc_opt name req.Http.query with
  | Some "" | None -> None
  | Some v -> Some v

(* ---- Plain endpoints --------------------------------------------------- *)

let handle_root t _req _params =
  json_response ~status:200
    (Json.Obj
       [
         ("service", Json.String "xsact-serve");
         ( "datasets",
           Json.List (List.map (fun n -> Json.String n) (dataset_names t)) );
         ( "endpoints",
           Json.List
             (List.map
                (fun e -> Json.String e)
                [
                  "GET /health";
                  "GET /ready";
                  "GET /datasets";
                  "GET /search?dataset=&q=";
                  "POST /compare";
                  "GET /metrics";
                  "POST /session";
                  "GET /session";
                  "GET /session/:id";
                  "POST /session/:id/add";
                  "POST /session/:id/remove";
                  "POST /session/:id/size";
                  "POST /session/:id/apply";
                  "PATCH /session/:id/params";
                  "DELETE /session/:id";
                ]) );
       ])

(* Liveness: the process is up and serving its event loop. Deliberately
   ignores recovery state — a crash-looping recovery must not get the
   process killed by a liveness probe while it replays. *)
let handle_health _t _req _params =
  json_response ~status:200 (Json.Obj [ ("status", Json.String "ok") ])

(* ---- Cluster topology ----------------------------------------------------

   Role and fencing epoch live in the pure [Cluster.t]; this section only
   reads it, renders it, and probes the peers that feed the election. *)

let addr_string = Cluster.addr_string
let fence_epoch t = (cluster t).Cluster.epoch
let role_string t = Cluster.role_name (cluster t).Cluster.role

let json_of_addr = function
  | Some hp -> Json.String (addr_string hp)
  | None -> Json.Null

(* Who holds (or last held) the pen, as a HOST:PORT hint for error
   bodies: ourselves when primary, else the fencing winner, else
   whichever primary we currently follow. *)
let winner_hint t =
  let c = cluster t in
  if c.Cluster.role = Cluster.Primary then Option.map addr_string t.advertise
  else
    match c.Cluster.winner with
    | Some w -> Some w
    | None -> Option.map addr_string c.Cluster.primary

(* The fencing 409s carry the deciding facts at top level next to the
   standard error envelope, so a superseded caller can re-point without a
   second round trip: [epoch] is this node's current fencing epoch,
   [winner] the address to talk to. *)
let fencing_error ~status ~code t msg =
  json_response ~status
    (Json.Obj
       [
         ( "error",
           Json.Obj
             [ ("code", Json.String code); ("message", Json.String msg) ] );
         ("epoch", Json.Int (fence_epoch t));
         ( "winner",
           match winner_hint t with
           | Some w -> Json.String w
           | None -> Json.Null );
       ])

(* One short timed probe: GET /v1/epoch with 0.5 s socket timeouts (the
   plain [Http.request] client has none — a wedged peer would hang
   discovery). Returns the peer's (role, epoch, primary hint). *)
let probe_timeout_s = 0.5

let probe_request ~host ~port ?meth ?body path =
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> None
  | addr -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO probe_timeout_s;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO probe_timeout_s;
          Unix.connect fd (Unix.ADDR_INET (addr, port));
          (* The channels own a duplicate of [fd] and are closed with it,
             for the reason [serve_connection]'s are. *)
          let cfd = Unix.dup fd in
          let ic = Unix.in_channel_of_descr cfd in
          let oc = Unix.out_channel_of_descr cfd in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              Http.send_request oc ~host:(addr_string (host, port)) ?meth
                ?body path;
              Http.read_response ic))
    with
    | exception
        ( Unix.Unix_error _ | Sys_error _ | Sys_blocked_io | Failure _
        | End_of_file ) ->
      (* [Sys_blocked_io]: a channel read or write that ran into a socket
         timeout *)
      None
    | status, _, resp_body -> Some (status, resp_body))

let probe_epoch ~host ~port =
  match probe_request ~host ~port "/v1/epoch" with
  | Some (200, body) -> (
    match Json.of_string body with
    | Error _ -> None
    | Ok j ->
      let str name = Option.bind (Json.member name j) Json.to_str in
      let int name = Option.bind (Json.member name j) Json.to_int in
      (match (str "role", int "epoch") with
      | Some role, Some epoch ->
        Some
          {
            Cluster.p_addr = (host, port);
            p_role =
              (if role = "primary" then Cluster.Primary else Cluster.Follower);
            p_epoch = epoch;
            p_primary = Option.bind (str "primary") Cluster.parse_hostport;
          }
      | _ -> None))
  | _ -> None

(* Every address worth probing: the static peer list, the configured
   primary, wherever we currently point, and any fencing winner on
   record — minus ourselves. *)
let candidates t =
  let c = cluster t in
  let extra =
    List.filter_map Fun.id
      [
        t.replica_of;
        c.Cluster.primary;
        Option.bind c.Cluster.winner Cluster.parse_hostport;
      ]
  in
  let all = t.peers @ extra in
  let self = t.advertise in
  List.fold_left
    (fun acc hp ->
      if Some hp = self || List.mem hp acc then acc else acc @ [ hp ])
    [] all

(* Probe every candidate, following one indirection hop through
   followers' reported primaries (a follower that already re-pointed
   knows the winner before our static list does). *)
let probe_cluster t =
  let direct =
    List.filter_map (fun (h, p) -> probe_epoch ~host:h ~port:p) (candidates t)
  in
  let known = List.map (fun s -> s.Cluster.p_addr) direct in
  let hops =
    List.filter_map
      (fun s ->
        match s.Cluster.p_primary with
        | Some hp
          when s.Cluster.p_role <> Cluster.Primary
               && (not (List.mem hp known))
               && Some hp <> t.advertise ->
          Some hp
        | _ -> None)
      direct
    |> List.sort_uniq compare
  in
  direct @ List.filter_map (fun (h, p) -> probe_epoch ~host:h ~port:p) hops

(* The live primary to follow, if any, by the election's ranking. *)
let discover_primary t =
  match
    Cluster.elect ~self:t.advertise ~epoch:(fence_epoch t) (probe_cluster t)
  with
  | Some (Cluster.Follow hp) -> Some hp
  | _ -> None

(* The role block shared by /ready, /metrics and /v1/epoch; [self] is
   what a primary reports as [primary] (absent: null). *)
let cluster_fields ?self t =
  let c = cluster t in
  [
    ("role", Json.String (Cluster.role_name c.Cluster.role));
    ("epoch", Json.Int c.Cluster.epoch);
    ("fenced", Json.Bool (c.Cluster.role = Cluster.Fenced));
    ( "primary",
      json_of_addr
        (if c.Cluster.role = Cluster.Primary then self else c.Cluster.primary)
    );
  ]

(* Readiness: route traffic here only once recovered state is live. Not a
   bare 200/503 — the body reports how far recovery/replication has
   progressed (records folded, current journal offset; on a follower,
   replication lag and liveness), so an operator watching a slow boot
   sees movement, not a coin flip. *)
let handle_ready t _req _params =
  let progress =
    cluster_fields t
    @ [
      ( "records_replayed",
        Json.Int
          (match !(t.durability) with
          | Some d -> Durability.replayed_records d
          | None -> 0) );
      ( "journal_offset",
        Json.Int
          (match !(t.durability) with
          | Some d -> Durability.journal_offset d
          | None -> 0) );
    ]
    @
    match !(t.repl_client) with
    | Some c ->
      [
        ("lag_records", Json.Int (Replication.lag_records c));
        ("connected", Json.Bool (Replication.connected c));
      ]
    | None -> []
  in
  if Atomic.get t.ready then
    json_response ~status:200
      (Json.Obj (("status", Json.String "ready") :: progress))
  else
    json_response ~status:503
      ~headers:[ ("Retry-After", "1") ]
      (Json.Obj (("status", Json.String "recovering") :: progress))

let handle_datasets t _req _params =
  json_response ~status:200
    (Json.Obj
       [
         ( "datasets",
           Json.List
             (List.map
                (fun (name, e) ->
                  Json.Obj
                    [
                      ("name", Json.String name);
                      ("description", Json.String e.dataset.Dataset.description);
                      ( "queries",
                        Json.List
                          (List.map
                             (fun (label, q) ->
                               Json.Obj
                                 [
                                   ("label", Json.String label);
                                   ("q", Json.String q);
                                 ])
                             e.dataset.Dataset.queries) );
                    ])
                t.entries) );
       ])

let handle_search t req _params =
  match (query_param req "dataset", query_param req "q") with
  | None, _ ->
    error_response ~status:400 ~code:"bad_request"
      "missing query parameter \"dataset\""
  | _, None ->
    error_response ~status:400 ~code:"bad_request"
      "missing query parameter \"q\""
  | Some dataset, Some q -> (
    let limit =
      match query_param req "limit" with
      | None -> Ok 10
      | Some s when String.for_all (fun c -> c >= '0' && c <= '9') s ->
        Option.to_result ~none:() (int_of_string_opt s)
      | Some _ -> Error ()
    in
    match (find_entry t dataset, Api.decode_keywords q, limit) with
    | _, Error e, _ -> error_response ~status:400 ~code:"bad_request" e
    | _, _, Error () ->
      error_response ~status:400 ~code:"bad_request"
        "query parameter \"limit\" must be a non-negative integer"
    | None, Ok _, Ok _ ->
      error_response ~status:404 ~code:"unknown_dataset"
        ("unknown dataset " ^ dataset)
    | Some entry, Ok normalized, Ok limit ->
      let lift_to = query_param req "lift_to" in
      let results = Pipeline.search ~limit ?lift_to entry.pipeline q in
      let engine = Pipeline.engine entry.pipeline in
      let titled =
        List.map (fun r -> (r, Search.result_title engine r)) results
      in
      json_response ~status:200
        (Json.Obj
           [
             ("q", Json.String normalized);
             ("count", Json.Int (List.length titled));
             ("results", Api.json_of_results titled);
           ]))

(* ---- /compare: decode, consult the LRU, compute ------------------------ *)

let decode_body req =
  match Json.of_string req.Http.body with
  | Error e ->
    Error (error_response ~status:400 ~code:"bad_request" ("invalid JSON: " ^ e))
  | Ok json -> Ok json

let decode_compare_body req =
  match decode_body req with
  | Error resp -> Error resp
  | Ok json -> (
    match Api.decode_compare json with
    | Error e -> Error (error_response ~status:400 ~code:"bad_request" e)
    | Ok creq ->
      if creq.Api.algorithm = Algorithm.Exhaustive then
        Error (core_error (Error.Unsupported_algorithm "exhaustive"))
      else Ok creq)

let request_config t (creq : Api.compare_request) =
  let config = Api.to_config creq in
  if t.incremental then config else Config.with_incremental false config

(* The request's cooperative deadline: the server default, overridable per
   request with an [X-Deadline-Ms] header, clamped to the configured
   maximum (a client cannot buy unbounded compute) and to 0 from below (a
   nonsense negative budget just expires immediately → 504). *)
let deadline_of_req t req =
  let ms =
    match Option.bind (Http.header req "x-deadline-ms") int_of_string_opt with
    | Some ms -> Some (max 0 (min ms t.max_deadline_ms))
    | None -> t.default_deadline_ms
  in
  Option.map (fun ms -> Xsact_util.Deadline.of_ms (float_of_int ms)) ms

let degraded_response t ~cache ~reasons body =
  Metrics.incr_counter t.metrics "responses_degraded";
  Http.response
    ~headers:
      [ ("X-Cache", cache); ("X-Degraded", String.concat ", " reasons) ]
    ~status:200 body

module Int_set = Set.Make (Int)

(* A selection names each result at most once — the invariant the add op
   enforces. /compare, POST /session and a rewarm from a journaled
   selection all answer this one 422, naming the first rank that repeats
   an earlier one. It runs before the range check, on a list as long as
   the body allows, so it is O(n log n). *)
let distinct_ranks ranks =
  let rec first_dup seen = function
    | [] -> Ok ()
    | r :: rest ->
      if Int_set.mem r seen then
        Error
          (error_response ~status:422 ~code:"unprocessable"
             (Printf.sprintf "duplicate rank %d in \"select\"" r))
      else first_dup (Int_set.add r seen) rest
  in
  first_dup Int_set.empty ranks

(* Per-key single-flight: the first thread to miss on [key] claims it and
   computes with [t.lock] released, so cache hits, other keys, and /metrics
   never wait behind an in-flight comparison. Duplicate requests block on
   [inflight_done] and replay the cached body once the claimant retires the
   key. If the claimant fails (typed error or exception), waiters wake to
   find neither a cache entry nor an inflight mark and claim the key
   themselves. *)
let handle_compare t req _params =
  match decode_compare_body req with
  | Error resp -> resp
  | Ok creq -> (
    match
      ( find_entry t creq.Api.dataset,
        distinct_ranks (Option.value ~default:[] creq.Api.select) )
    with
    | None, _ ->
      error_response ~status:404 ~code:"unknown_dataset"
        ("unknown dataset " ^ creq.Api.dataset)
    | Some _, Error resp -> resp
    | Some entry, Ok () -> (
      let deadline = deadline_of_req t req in
      (* Overload degradation ladder (DESIGN.md §9): under queue pressure a
         multi-swap request is downgraded to single-swap {e before}
         looking at the cache, so a cached single-swap answer (possibly
         populated by an earlier degraded request) is served stale-but-fast
         and a fresh compute does the cheaper climb. The downgraded result
         is cached under its {e actual} (single-swap) key — never under the
         multi-swap key it stands in for — so the cache is never
         poisoned. *)
      let downgraded =
        creq.Api.algorithm = Algorithm.Multi_swap && t.overloaded ()
      in
      let creq =
        if downgraded then { creq with Api.algorithm = Algorithm.Single_swap }
        else creq
      in
      let key = Api.canonical_key ~scope:Api.Full creq in
      let claim =
        locked t (fun () ->
            let rec claim () =
              match Lru.find t.cache key with
              | Some body -> `Hit body
              | None ->
                if Hashtbl.mem t.inflight key then begin
                  Condition.wait t.inflight_done t.lock;
                  claim ()
                end
                else begin
                  Hashtbl.add t.inflight key ();
                  `Compute
                end
            in
            claim ())
      in
      match claim with
      | `Hit body ->
        if downgraded then
          degraded_response t ~cache:"hit" ~reasons:[ "algorithm" ] body
        else Http.response ~headers:[ ("X-Cache", "hit") ] ~status:200 body
      | `Compute ->
        let retire () =
          locked t (fun () ->
              Hashtbl.remove t.inflight key;
              Condition.broadcast t.inflight_done)
        in
        Fun.protect ~finally:retire (fun () ->
            let config = request_config t creq in
            (* Warm-context fast path: a previous comparison over the same
               result set (any size bound, any algorithm — the pair tables
               depend on neither) or a live session left its context and
               profiles in the intern table; reuse skips search, extraction
               and the O(n²) pair-table build, and is byte-identical
               because an interned context is bit-identical to the one a
               fresh build would produce. [peek]: /compare borrows for the
               request, it takes no reference. *)
            let ctx_key = Api.canonical_key ~scope:Api.Context creq in
            let warm_ctx =
              if t.incremental then Intern.peek t.intern ctx_key else None
            in
            let outcome =
              match warm_ctx with
              | Some (profiles, context) ->
                Metrics.incr_counter t.metrics "context_builds_reused";
                Pipeline.compare_profiles ~config ?deadline ~context
                  ~keywords:creq.Api.keywords
                  ~size_bound:creq.Api.size_bound profiles
              | None ->
                Pipeline.compare ~config ?deadline ?select:creq.Api.select
                  ~top:creq.Api.top entry.pipeline
                  ~keywords:creq.Api.keywords
                  ~size_bound:creq.Api.size_bound
            in
            match outcome with
            | Error Error.Timeout ->
              (* A waiter can land here too: if its deadline expired while
                 parked on the condition variable and the claimant left no
                 cache entry, its own compute attempt times out at entry. *)
              Metrics.incr_counter t.metrics "requests_timed_out";
              core_error Error.Timeout
            | Error e -> core_error e
            | Ok comparison ->
              if Option.is_none warm_ctx then begin
                Metrics.incr_counter t.metrics "context_builds_full";
                (* The context is complete even when generation degraded —
                   cache it either way (the body cache below stays
                   degraded-free as before). Unpinned: it lives until the
                   byte budget or the reuse-cache capacity evicts it. *)
                if t.incremental then
                  Intern.insert_cached t.intern ctx_key
                    ~profiles:comparison.Pipeline.profiles
                    ~context:comparison.Pipeline.context
              end;
              let body = Json.to_string (Api.json_of_comparison comparison) in
              if comparison.Pipeline.degraded then
                (* Anytime best-so-far, not the converged answer: serve it
                   (the client asked for a budget) but never cache it. *)
                degraded_response t ~cache:"miss"
                  ~reasons:
                    (if downgraded then [ "algorithm"; "deadline" ]
                     else [ "deadline" ])
                  body
              else begin
                locked t (fun () -> Lru.add t.cache key body);
                if downgraded then
                  degraded_response t ~cache:"miss" ~reasons:[ "algorithm" ]
                    body
                else
                  Http.response
                    ~headers:[ ("X-Cache", "miss") ]
                    ~status:200 body
              end)))

(* ---- Sessions ---------------------------------------------------------- *)

let session_summary id se =
  Json.Obj
    [
      ("id", Json.String id);
      ("dataset", Json.String se.s_dataset);
      ("q", Json.String se.s_request.Api.keywords);
      ("ranks", Json.List (List.map (fun r -> Json.Int r) se.s_ranks));
      ("size_bound", Json.Int (Session.size_bound se.s_session));
      ("dod", Json.Int (Session.dod se.s_session));
      ( "algorithm",
        Json.String
          (Algorithm.to_string (Session.config se.s_session).Config.algorithm)
      );
      ("runs", Json.Int (Session.stats se.s_session));
    ]

let result_with_rank results rank =
  List.find_opt (fun r -> r.Search.rank = rank) results

(* A session's canonical context key: its originating request with the
   selection resolved to the explicit current ranks, at Context scope —
   so a session created with [top: 3] and one created with
   [select: [1,2,3]] intern the same entry, and /compare requests with an
   explicit selection share it too. *)
let ctx_key creq ranks =
  Api.canonical_key ~scope:Api.Context { creq with Api.select = Some ranks }

let session_ctx_key se = ctx_key se.s_request se.s_ranks

(* Build the resident state for a session over [creq] with [ranks]
   selected ([None] → the first [top]) at [size_bound]. Shared by
   POST /session and every rewarm of a cold cell — after a restart, on a
   follower, after demotion — so a session comes back over the context a
   fresh create from its journaled request would build. [resume] (the DFS
   q-vectors and run count the cell served) replaces the generation: the
   DFSs are restored over the context through [Session.restore], which
   re-validates them, and a failed validation falls back to generating.
   On an incremental server
   the entry comes with one intern-table reference on its context key,
   which the caller's cell then holds: a hit adopts the interned
   (profiles, context) pair — skipping extraction and the O(n²)
   pair-table build — and a miss publishes the fresh build. The ablation
   server never interns. Touches no session cell, so it runs outside
   [session_update] on create. *)
let build_session_entry ?resume t creq ~ranks ~size_bound =
  match find_entry t creq.Api.dataset with
  | None ->
    Error
      (error_response ~status:404 ~code:"unknown_dataset"
         ("unknown dataset " ^ creq.Api.dataset))
  | Some entry -> (
    let keywords = creq.Api.keywords in
    let results = Pipeline.search entry.pipeline keywords in
    if results = [] then Error (core_error (Error.No_results keywords))
    else
      let available = List.length results in
      let ranks =
        match ranks with
        | Some ranks -> ranks
        | None ->
          (* a negative [top] selects nothing, as on /compare: the 422
             comes from [Session.create] *)
          List.init (max 0 (min creq.Api.top available)) (fun i -> i + 1)
      in
      match distinct_ranks ranks with
      | Error resp -> Error resp
      | Ok () -> (
        match
          List.find_opt (fun r -> result_with_rank results r = None) ranks
        with
        | Some bad ->
          Error (core_error (Error.Rank_out_of_range { rank = bad; available }))
        | None -> (
          let config = request_config t creq in
          let session_of ?context profiles =
            match resume with
            | None -> Session.create ~config ?context ~size_bound profiles
            | Some (qs, runs) -> (
              let context =
                match context with
                | Some c -> c
                | None ->
                  Dod.make_context ~params:config.Config.params
                    ~weight:config.Config.weight (Array.of_list profiles)
              in
              let rs = Dod.results context in
              match
                Session.restore ~runs ~config ~size_bound ~context
                  ~dfss:(Array.mapi (fun i q -> Dfs.of_q_array rs.(i) q) qs)
                  ()
              with
              | exception Invalid_argument _ ->
                Session.create ~config ~context ~size_bound profiles
              | restored -> restored)
          in
          let entry_of session =
            {
              s_dataset = creq.Api.dataset;
              s_request = creq;
              s_results = results;
              s_ranks = ranks;
              s_session = session;
            }
          in
          let ctx_key = ctx_key creq ranks in
          match
            if t.incremental then Intern.acquire t.intern ctx_key else None
          with
          | Some (profiles, context) -> (
            Metrics.incr_counter t.metrics "context_builds_reused";
            match session_of ~context (Array.to_list profiles) with
            | Error e ->
              Intern.release t.intern ctx_key;
              Error (core_error e)
            | Ok session -> Ok (entry_of session))
          | None -> (
            let profiles =
              List.map
                (fun rank ->
                  let r = Option.get (result_with_rank results rank) in
                  Pipeline.profile_of ~keywords entry.pipeline r)
                ranks
            in
            match session_of profiles with
            | Error e -> Error (core_error e)
            | Ok session ->
              (* the one place a session context is built from scratch *)
              Metrics.incr_counter t.metrics "context_builds_full";
              if not t.incremental then Ok (entry_of session)
              else
                (* Publish under the key; a racing builder may have won —
                   adopt the canonical pair so both sessions share one
                   physical context (bit-identical by construction). *)
                let _, context =
                  Intern.publish t.intern ctx_key
                    ~profiles:(Session.profiles session)
                    ~context:(Session.context session)
                in
                let session =
                  if context == Session.context session then session
                  else Session.intern session ~context
                in
                Ok (entry_of session)))))

(* Drop the intern reference a cell holds, as it goes cold or leaves the
   store: by the invariant on [stored_session], a warm cell on an
   incremental server holds one. *)
let release_cell ~incremental intern st =
  match st.state with
  | Warm se when incremental -> Intern.release intern (session_ctx_key se)
  | Warm _ | Cold _ -> ()

(* The unified memory ledger (DESIGN.md §13): the intern table's bytes —
   warm-session contexts and the /compare reuse cache are one
   deduplicated population there — plus, on the ablation server, which
   interns nothing, the private contexts of its warm sessions. N sessions
   over one corpus cost one context's bytes, and the ledger says so. *)
let live_context_bytes t sessions =
  let private_bytes =
    if t.incremental then 0
    else
      Session_store.fold sessions ~init:0 ~f:(fun _ st ~last_used:_ acc ->
          match st.state with
          | Warm se -> acc + Dod.approx_bytes (Session.context se.s_session)
          | Cold _ -> acc)
  in
  Intern.bytes_live t.intern + private_bytes

(* Demote least-recently-used warm sessions to cold until the ledger fits
   the byte budget, sparing [keep] (the session the current request is
   touching). A demotion drops the cell's intern reference; the bytes
   actually leave the ledger only when the last holder drops and the
   now-unpinned entry is shed — so the loop re-reads the ledger rather
   than assuming each demotion reclaims a context. In-place cell
   mutation, no store event: hot/cold residency is not durable state, and
   the journal entry for a cold cell is identical anyway. Called under
   [session_update]. *)
let enforce_context_budget t sessions ~keep =
  match t.max_context_bytes with
  | None -> ()
  | Some budget ->
    if live_context_bytes t sessions > budget then begin
      let warm =
        Session_store.fold sessions ~init:[] ~f:(fun id st ~last_used acc ->
            match st.state with
            | Warm se -> (id, st, se, last_used) :: acc
            | Cold _ -> acc)
      in
      let oldest_first =
        List.sort
          (fun (ida, _, _, la) (idb, _, _, lb) ->
            match Float.compare la lb with 0 -> compare ida idb | c -> c)
          warm
      in
      List.iter
        (fun (id, st, se, _) ->
          if id <> keep && live_context_bytes t sessions > budget then begin
            release_cell ~incremental:t.incremental t.intern st;
            st.state <- Cold (cold_of_entry se);
            Metrics.incr_counter t.metrics "contexts_demoted"
          end)
        oldest_first
    end

(* Rebuild a cold session's resident state on first touch — the exact
   [build_session_entry] path POST /session took. The cell resumes the
   DFSs it served, so it answers what was acknowledged (DESIGN.md §10);
   only an entry journaled without them regenerates, which is what a
   fresh create over its recipe serves. An
   unrecoverable cold cell (e.g. its dataset is no longer loaded)
   surfaces its error and stays cold: a later restart with the dataset
   back still serves it. Called under [session_update]. *)
let warm_session t sessions id st =
  match st.state with
  | Warm se -> Ok se
  | Cold c -> (
    match
      build_session_entry ?resume:c.c_resume t c.c_request
        ~ranks:(Some c.c_ranks) ~size_bound:c.c_size_bound
    with
    | Ok se ->
      st.state <- Warm se;
      Metrics.incr_counter t.metrics "sessions_rewarmed";
      enforce_context_budget t sessions ~keep:id;
      Ok se
    | Error resp -> Error resp)

let handle_session_create t req _params =
  match decode_compare_body req with
  | Error resp -> resp
  | Ok creq -> (
    match
      build_session_entry t creq ~ranks:creq.Api.select
        ~size_bound:creq.Api.size_bound
    with
    | Error resp -> resp
    | Ok se ->
      let cell = { state = Warm se } in
      let id =
        with_sessions t (fun sessions ->
            match Session_store.add sessions cell with
            | id ->
              enforce_context_budget t sessions ~keep:id;
              id
            | exception e ->
              (* An Expired or Evicted hook raised (a failed journal
                 append) before the insert: no stored cell holds the new
                 entry's intern reference, so it is dropped here. The
                 client still gets the 500. *)
              let bt = Printexc.get_raw_backtrace () in
              let stored =
                Session_store.fold sessions ~init:false
                  ~f:(fun _ st ~last_used:_ found -> found || st == cell)
              in
              if not stored then
                release_cell ~incremental:t.incremental t.intern cell;
              Printexc.raise_with_backtrace e bt)
      in
      json_response ~status:201 (session_summary id se))

let handle_session_list t _req _params =
  json_response ~status:200
    (Json.Obj
       [
         ( "sessions",
           Json.List
             (List.map
                (fun id -> Json.String id)
                (with_sessions t Session_store.ids)) );
       ])

(* Every per-id session handler — reads included — runs under
   [session_update]: a touch may rewarm a cold cell, and serializing the
   state transitions keeps them single-writer. The table render under the
   lock is cheap next to the mutations it shares the lock with. *)
let with_session t params f =
  let id = Option.value ~default:"" (List.assoc_opt "id" params) in
  with_sessions t (fun sessions ->
      match Session_store.find sessions id with
      | None ->
        error_response ~status:404 ~code:"unknown_session"
          ("unknown session " ^ id)
      | Some st -> (
        match warm_session t sessions id st with
        | Error resp -> resp
        | Ok se -> f sessions id se))

let handle_session_get t _req params =
  with_session t params (fun _ id se ->
      let fields =
        match session_summary id se with Json.Obj fields -> fields | _ -> []
      in
      json_response ~status:200
        (Json.Obj
           (fields
           @ [ ("table", Api.json_of_table (Session.table se.s_session)) ])))

let timed_out_response t =
  Metrics.incr_counter t.metrics "requests_timed_out";
  core_error Error.Timeout

(* Book the context work a physically-changed session cost: one delta per
   batch on the incremental server (unless the batch was resizes only,
   which reuse the context outright), one full rebuild on the ablation
   server. A physically-unchanged session means the batch cancelled out —
   no context work happened, nothing to book. *)
let book_mutation_build t sops =
  if t.incremental then begin
    let ctx_op =
      List.exists (function Session.Set_size_bound _ -> false | _ -> true) sops
    in
    if ctx_op then begin
      Metrics.incr_counter t.metrics "context_builds_delta";
      let reparams_n =
        List.length
          (List.filter (function Session.Reparams _ -> true | _ -> false) sops)
      in
      if reparams_n > 0 then
        Metrics.incr_counter ~by:reparams_n t.metrics "reparams_delta"
    end
  end
  else Metrics.incr_counter t.metrics "context_builds_full"

(* Publish the mutated session back to the store, moving this cell's
   intern reference from the old context key to the new one. The new
   reference is taken {e before} the old one is dropped, so a key-
   preserving mutation (a resize, a reparams to the same values) never
   lets the entry go unpinned mid-handoff; adopting the canonical pair
   that [publish] returns keeps every holder of a key on one physical
   context. Called under [session_update], which the whole mutation
   holds from its lookup on: no DELETE, expiry or eviction can remove
   the cell in between. *)
let store_mutated t sessions ~origin id old_se se =
  let se =
    if not t.incremental then se
    else begin
      let _, context =
        Intern.publish t.intern (session_ctx_key se)
          ~profiles:(Session.profiles se.s_session)
          ~context:(Session.context se.s_session)
      in
      Intern.release t.intern (session_ctx_key old_se);
      if context == Session.context se.s_session then se
      else { se with s_session = Session.intern se.s_session ~context }
    end
  in
  Session_store.set ~origin sessions id { state = Warm se };
  enforce_context_budget t sessions ~keep:id;
  json_response ~status:200 (session_summary id se)

(* The one mutation handler. Every endpoint — the single-op wrappers and
   POST /session/:id/apply — decodes to an op list, rank-translates and
   validates it through [Api.translate_ops] (so the duplicate-rank and
   unknown-rank 422s exist exactly once), applies it as one
   [Session.apply] batch (one context delta, one DFS regeneration), and
   lands one store event / journal record. Any invalid op fails the whole
   request before any pair work, leaving the stored session untouched. *)
let mutate t req params ~origin decode =
  match decode_body req with
  | Error resp -> resp
  | Ok json -> (
    match decode json with
    | Error e -> op_error_response e
    | Ok ops ->
      let deadline = deadline_of_req t req in
      with_session t params (fun sessions id se ->
          let entry = Option.get (find_entry t se.s_dataset) in
          let keywords = se.s_request.Api.keywords in
          match
            Api.translate_ops ~request:se.s_request ~ranks:se.s_ranks
              ~available:(List.length se.s_results)
              ~profile_of:(fun rank ->
                let r = Option.get (result_with_rank se.s_results rank) in
                Pipeline.profile_of ~keywords entry.pipeline r)
              ~config_of:(request_config t) ops
          with
          | Error (`Op e) -> op_error_response e
          | Error (`Core e) -> core_error e
          | Ok (sops, ranks, creq) -> (
            match Session.apply ?deadline se.s_session sops with
            | exception Xsact_util.Deadline.Expired ->
              (* the delta never landed; the stored session (and its
                 context) is exactly as before *)
              timed_out_response t
            | Error e -> core_error e
            | Ok session ->
              if String.equal origin "apply" then
                Metrics.incr_counter ~by:(List.length ops) t.metrics
                  "ops_batched";
              if session != se.s_session then book_mutation_build t sops;
              store_mutated t sessions ~origin id se
                {
                  se with
                  s_request = creq;
                  s_ranks = ranks;
                  s_session = session;
                })))

(* POST /session/:id/add, /remove, /size — thin wrappers building a
   singleton batch through the op path; observably identical to the
   historical dedicated handlers (same checks, same warm starts, same
   accounting) because [Session.apply] makes a singleton batch reproduce
   the single operation exactly. *)
let single_op op json =
  Result.map (fun o -> [ o ]) (Api.decode_single_op ~op json)

let handle_session_add t req params =
  mutate t req params ~origin:"add" (single_op "add")

let handle_session_remove t req params =
  mutate t req params ~origin:"remove" (single_op "remove")

let handle_session_size t req params =
  mutate t req params ~origin:"size" (single_op "size")

(* PATCH /session/:id/params — the interactive "drag the threshold /
   weight slider" loop: a singleton params op re-derives the live context
   by delta without re-extracting profiles, and the patch folds into the
   stored request so the journaled recipe — and any cold rebuild from it
   — uses the new parameters. *)
let handle_session_params t req params =
  mutate t req params ~origin:"params" (fun json ->
      Result.map (fun patch -> [ Api.Op_params patch ])
        (Api.decode_params_patch json))

(* POST /session/:id/apply — a batch of mutations as one unit: one
   request, one context delta, one DFS regeneration, one store event, one
   journal record, one response. *)
let handle_session_apply t req params =
  mutate t req params ~origin:"apply" Api.decode_ops

let handle_session_delete t _req params =
  let id = Option.value ~default:"" (List.assoc_opt "id" params) in
  if with_sessions t (fun sessions -> Session_store.remove sessions id) then
    json_response ~status:200 (Json.Obj [ ("deleted", Json.String id) ])
  else
    error_response ~status:404 ~code:"unknown_session" ("unknown session " ^ id)

(* ---- /metrics ---------------------------------------------------------- *)

let handle_metrics t _req _params =
  let hits, misses, cache_len =
    locked t (fun () ->
        (Lru.hits t.cache, Lru.misses t.cache, Lru.length t.cache))
  in
  let lookups = hits + misses in
  let hit_rate =
    if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups
  in
  (* One consistent view of the session gauges and the intern table, read
     under [session_update] between mutations. Pair tables are
     deduplicated by physical context, so k sessions sharing one interned
     context report one context's tables. *)
  let live, expired, evicted, (shared_ctxs, warm_n, cold_n), ctx_bytes, istats
      =
    with_sessions t (fun sessions ->
        (* [count] purges expired cells first, so the rest sees the live *)
        let live = Session_store.count sessions in
        let split =
          Session_store.fold sessions ~init:([], 0, 0)
            ~f:(fun _ st ~last_used:_ (ctxs, w, c) ->
              match st.state with
              | Warm se ->
                let ctx = Session.context se.s_session in
                ((if List.memq ctx ctxs then ctxs else ctx :: ctxs), w + 1, c)
              | Cold _ -> (ctxs, w, c + 1))
        in
        ( live,
          Session_store.expired_total sessions,
          Session_store.evicted_total sessions,
          split,
          live_context_bytes t sessions,
          Intern.stats t.intern ))
  in
  let ctx_tables =
    List.fold_left (fun a ctx -> a + Dod.num_pair_tables ctx) 0 shared_ctxs
  in
  json_response ~status:200
    (Metrics.snapshot t.metrics
       ~extra:
         [
           ( "cache",
             Json.Obj
               [
                 ("capacity", Json.Int (Lru.capacity t.cache));
                 ("entries", Json.Int cache_len);
                 ("hits", Json.Int hits);
                 ("misses", Json.Int misses);
                 ("hit_rate", Json.Float hit_rate);
               ] );
           ( "context_builds_full",
             Json.Int (Metrics.counter t.metrics "context_builds_full") );
           ( "context_builds_delta",
             Json.Int (Metrics.counter t.metrics "context_builds_delta") );
           ( "context_builds_reused",
             Json.Int (Metrics.counter t.metrics "context_builds_reused") );
           ("context_pair_tables_live", Json.Int ctx_tables);
           ("context_bytes_live", Json.Int ctx_bytes);
           ( "context_budget_bytes",
             match t.max_context_bytes with
             | None -> Json.Null
             | Some b -> Json.Int b );
           ( "ops_batched",
             Json.Int (Metrics.counter t.metrics "ops_batched") );
           ( "reparams_delta",
             Json.Int (Metrics.counter t.metrics "reparams_delta") );
           ( "contexts_demoted",
             Json.Int (Metrics.counter t.metrics "contexts_demoted") );
           ( "sessions_rewarmed",
             Json.Int (Metrics.counter t.metrics "sessions_rewarmed") );
           ("sessions_warm", Json.Int warm_n);
           ("sessions_cold", Json.Int cold_n);
           ("contexts_interned", Json.Int istats.Intern.entries);
           ( "context_intern",
             Json.Obj
               [
                 ("entries", Json.Int istats.Intern.entries);
                 ("pinned", Json.Int istats.Intern.pinned);
                 ("refs", Json.Int istats.Intern.refs_total);
                 ( "cache_capacity",
                   Json.Int (Intern.cache_capacity t.intern) );
                 ("hits", Json.Int istats.Intern.hits);
                 ("misses", Json.Int istats.Intern.misses);
                 ("evictions", Json.Int istats.Intern.evictions);
               ] );
           ("sessions_live", Json.Int live);
           ("sessions_expired", Json.Int expired);
           ("sessions_evicted", Json.Int evicted);
           ("datasets", Json.Int (List.length t.entries));
           ("worker_threads", Json.Int t.threads);
           ("inflight_requests", Json.Int (Atomic.get t.inflight_now));
           ("queue_pending", Json.Int (t.queue_depth ()));
           ("ready", Json.Bool (Atomic.get t.ready));
           ( "durability",
             match !(t.durability) with
             | None -> Json.Null
             | Some d -> Durability.stats_json d );
           ("role", Json.String (role_string t));
           ( "replication",
             Json.Obj
               (cluster_fields t
               @ [
                  ("streams", Json.Int (Atomic.get t.streams));
                  ( "promotions",
                    Json.Int (Metrics.counter t.metrics "promotions") );
                  ( "demotions",
                    Json.Int (Metrics.counter t.metrics "demotions") );
                ]
               @
               match !(t.repl_client) with
               | Some c ->
                 [
                   ("connected", Json.Bool (Replication.connected c));
                   ("lag_records", Json.Int (Replication.lag_records c));
                   ( "applied_records",
                     Json.Int (Replication.applied_records c) );
                   ("resyncs", Json.Int (Replication.resyncs c));
                   ("divergences", Json.Int (Replication.divergences c));
                   ("repoints", Json.Int (Replication.repoints c));
                 ]
               | None -> []) );
         ])

(* A session's DFS q-vectors as one string: each vector's counts joined
   by ',', the vectors by ';'. It is written under [session_update] on
   every mutation, so it stays one flat string rather than a JSON tree. *)
let string_of_qs qs =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i q ->
      if i > 0 then Buffer.add_char b ';';
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int v))
        q)
    qs;
  Buffer.contents b

(* The inverse, on bytes read back from disk or a peer: [None] unless
   every count is a plain decimal. Arity and range are checked later, by
   [Dfs.of_q_array] and [Session.restore] against the rebuilt context. *)
let qs_of_string s =
  let count c =
    if c <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') c then
      int_of_string c (* [Failure] past [max_int] *)
    else raise Exit
  in
  let vector = function
    | "" -> [||]
    | v -> Array.of_list (List.map count (String.split_on_char ',' v))
  in
  match Array.of_list (List.map vector (String.split_on_char ';' s)) with
  | qs -> Some qs
  | exception (Exit | Failure _) -> None

(* The session's durable representation: everything needed to bring it
   back through [build_session_entry] — the originating request (in
   request-body format), the current selection and size bound, and the
   DFS q-vectors ("dfss") and run count ("runs") it serves. Warm and cold
   cells journal identically (residency is not durable state); search
   results, profiles and the context are recomputed on rewarm. *)
let json_of_stored st =
  let dataset, request, ranks, size_bound, resume =
    match st.state with
    | Warm se ->
      ( se.s_dataset,
        se.s_request,
        se.s_ranks,
        Session.size_bound se.s_session,
        Some (resume_of se.s_session) )
    | Cold c ->
      ( c.c_request.Api.dataset,
        c.c_request,
        c.c_ranks,
        c.c_size_bound,
        c.c_resume )
  in
  Json.Obj
    ([
       ("v", Json.Int 1);
       ("dataset", Json.String dataset);
       ("request", Api.json_of_compare request);
       ("ranks", Json.List (List.map (fun r -> Json.Int r) ranks));
       ("size_bound", Json.Int size_bound);
     ]
    @
    match resume with
    | None -> []
    | Some (qs, runs) ->
      [ ("dfss", Json.String (string_of_qs qs)); ("runs", Json.Int runs) ])

let log_event d = function
  | Session_store.Created { id; value; at } ->
    Durability.log_upsert d ~op:"create" ~id ~at ~entry:(json_of_stored value)
  | Session_store.Updated { id; origin; value; at } ->
    Durability.log_upsert d ~op:origin ~id ~at ~entry:(json_of_stored value)
  | Session_store.Removed { id; value = _ } ->
    Durability.log_delete d ~op:"delete" ~id
  | Session_store.Expired { id; value = _ } ->
    Durability.log_delete d ~op:"expire" ~id
  | Session_store.Evicted { id; value = _ } ->
    Durability.log_delete d ~op:"evict" ~id

(* ---- Installing sessions --------------------------------------------------

   Recovery, a replication resync and a replicated record all land session
   state through [install_sessions]. Every store touch there is event-free
   ([drop]/[restore]): the entries are already in this node's journal,
   exactly once, as themselves. *)

(* Decode a journal entry into a cold cell. Pure parsing — no search,
   no extraction, no context build: recovery restores every session cold
   and the first touch rewarms it through [build_session_entry], so boot
   time is O(journal) instead of O(sessions × n²) and the durability
   contract (a recovered session serves exactly what was acknowledged) is
   discharged lazily by the path that demotion's rewarm also takes. A
   missing or malformed "dfss"/"runs" pair only costs the resume: the
   session regenerates from its recipe. *)
let cold_of_journal entry_json =
  match Json.member "request" entry_json with
  | None -> Error "missing \"request\""
  | Some rj -> (
    match Api.decode_compare rj with
    | Error e -> Error e
    | Ok creq -> (
      let int name = Option.bind (Json.member name entry_json) Json.to_int in
      let ranks =
        match Option.bind (Json.member "ranks" entry_json) Json.to_list with
        | None -> None
        | Some items ->
          let ints = List.filter_map Json.to_int items in
          if List.length ints = List.length items then Some ints else None
      in
      let resume =
        match
          (Option.bind (Json.member "dfss" entry_json) Json.to_str, int "runs")
        with
        | Some qs, Some runs ->
          Option.map (fun qs -> (qs, runs)) (qs_of_string qs)
        | _ -> None
      in
      match (ranks, int "size_bound") with
      | Some ranks, Some size_bound ->
        Ok
          {
            c_request = creq;
            c_ranks = ranks;
            c_size_bound = size_bound;
            c_resume = resume;
          }
      | _ -> Error "malformed entry (ranks/size_bound)"))

let drop_session t sessions id =
  Option.iter
    (release_cell ~incremental:t.incremental t.intern)
    (Session_store.drop sessions id)

(* The one install path. Journal [entries] restore cold (an entry this
   build cannot even parse is counted and skipped — the server keeps
   serving); [eager] rewarms them at once, so a follower serves — and,
   promoted, keeps serving — warm sessions. [replace] drops every other
   session first (a resync is the whole state). *)
let install_sessions t d ?(replace = false) ~eager entries =
  with_sessions t (fun sessions ->
      if replace then
        List.iter (drop_session t sessions) (Session_store.ids sessions);
      List.iter
        (fun (id, at, entry) ->
          drop_session t sessions id;
          match cold_of_journal entry with
          | Ok cold ->
            let st = { state = Cold cold } in
            Session_store.restore sessions ~id ~last_used:at st;
            if eager then ignore (warm_session t sessions id st)
          | Error msg ->
            Durability.mark_dropped d;
            Printf.eprintf
              "xsact-serve: dropped unrecoverable session %s: %s\n%!" id msg)
        entries)

(* The replication client's state hooks, run on its thread. Both journal
   through [Durability] first, never through the store's event hook. *)
let repl_apply t d payload =
  match Durability.append_replicated d payload with
  | Durability.P_upsert { id; at; entry } ->
    install_sessions t d ~eager:true [ (id, at, entry) ]
  | Durability.P_delete id ->
    with_sessions t (fun sessions -> drop_session t sessions id)
  | Durability.P_meta next ->
    with_sessions t (fun sessions -> Session_store.ensure_next sessions next)
  | Durability.P_unknown -> ()  (* counted by the fold *)

(* Full-state handover: every session rewarms eagerly from its entry,
   resuming the DFSs the primary served (k sessions over one corpus share
   one context build through the intern table). *)
let repl_reset t d ~payloads =
  let r = Durability.install_resync d payloads in
  install_sessions t d ~replace:true ~eager:true r.Durability.entries;
  with_sessions t (fun sessions ->
      Session_store.ensure_next sessions r.Durability.next_id)

(* ---- Cluster transitions --------------------------------------------------

   [transition] is the one place role and epoch change: it runs
   [Cluster.step] under [cluster_lock], makes the fence durable before the
   new state becomes visible (no mutation is ever served under a stale
   epoch), then executes the other effects outside the lock. Effects reach
   back into this section — a demoted node starts a replication client,
   whose callbacks transition again — hence one recursive group. *)

let stop_client t ~join =
  let detached =
    locked t (fun () ->
        let c = !(t.repl_client) in
        t.repl_client := None;
        c)
  in
  Option.iter (Replication.stop_client ~join) detached

let rec transition t ev =
  let before, after, effects =
    with_lock t.cluster_lock (fun () ->
        let before = cluster t in
        let after, effects = Cluster.step before ev in
        List.iter
          (function
            | Cluster.Persist_fence { epoch; winner } ->
              Option.iter
                (fun d -> Durability.set_fence d ~epoch ?winner ())
                !(t.durability)
            | _ -> ())
          effects;
        Atomic.set t.cluster after;
        (before, after, effects))
  in
  List.iter
    (function
      | Cluster.Persist_fence _ -> ()
      | Cluster.Start_fencer epoch -> spawn_fencer t ~epoch
      | Cluster.Ensure_client -> ensure_client t
      | Cluster.Stop_client -> stop_client t ~join:false
      | Cluster.Count name -> Metrics.incr_counter t.metrics name)
    effects;
  (before, after)

(* After promotion, chase every peer with POST /v1/demote until each has
   acknowledged the new epoch — with capped jittered backoff, retrying
   unreachable peers for as long as we remain primary at this epoch.
   The indefinite retry is the channel that fences a dead ex-primary
   whenever it comes back, even minutes later. A peer answering with a
   {e higher} epoch means we lost a race we did not know about. *)
and spawn_fencer t ~epoch =
  let targets = candidates t in
  let announce =
    Json.to_string
      (Json.Obj
         (("epoch", Json.Int epoch)
         :: Option.fold ~none:[]
              ~some:(fun hp -> [ ("primary", Json.String (addr_string hp)) ])
              t.advertise))
  in
  let chase () =
    let prng =
      Xsact_util.Prng.of_int (Hashtbl.hash (Unix.getpid (), epoch, "fencer"))
    in
    let pending = ref targets in
    let backoff = ref 0.1 in
    let still_mine () =
      let c = cluster t in
      c.Cluster.role = Cluster.Primary
      && c.Cluster.epoch = epoch
      && not (Atomic.get t.closing)
    in
    while !pending <> [] && still_mine () do
      pending :=
        List.filter
          (fun (host, port) ->
            match
              probe_request ~host ~port ~meth:"POST" ~body:announce
                "/v1/demote"
            with
            | Some (409, body) ->
              (match Json.of_string body with
              | Ok j ->
                let str name = Option.bind (Json.member name j) Json.to_str in
                Option.iter
                  (fun e ->
                    ignore
                      (transition t
                         (Cluster.Observe { epoch = e; winner = str "winner" })))
                  (Option.bind (Json.member "epoch" j) Json.to_int)
              | Error _ -> ());
              false
            | Some _ -> false  (* acknowledged, or not a fencing peer *)
            | None -> true (* unreachable: keep chasing *))
          !pending;
      if !pending <> [] then begin
        Thread.delay (!backoff *. (0.5 +. Xsact_util.Prng.float prng 1.0));
        backoff := Float.min 2.0 (!backoff *. 2.)
      end
    done
  in
  if targets <> [] then ignore (Thread.create chase ())

(* A freshly-demoted node needs a client hunting for the winner; a node
   that already has one keeps it (its discovery re-points it). *)
and ensure_client t =
  match !(t.durability) with
  | Some d when (cluster t).Cluster.role <> Cluster.Primary ->
    locked t (fun () ->
        if !(t.repl_client) = None then
          t.repl_client := Some (start_repl_client t d))
  | _ -> ()

(* The follower-side replication client, wired to this server: epochs and
   re-points become transitions, state arrives through the install path,
   and a primary silent past [takeover_after] runs the election. *)
and start_repl_client t d =
  Replication.start_client ?primary:(cluster t).Cluster.primary ~durability:d
    ~my_epoch:(fun () -> fence_epoch t)
    ~on_epoch:(fun hp e ->
      (* below our epoch: a stale primary, abandoned; otherwise adopt the
         epoch (durably when higher) and follow. An equal epoch writes
         nothing, so a fenced ex-primary keeps its winner record. *)
      let before, _ =
        transition t (Cluster.Observe { epoch = e; winner = None })
      in
      e >= before.Cluster.epoch
      && (ignore (transition t (Cluster.Follow hp)); true))
    ~probe:(fun () -> discover_primary t)
    ~on_repoint:(fun hp -> ignore (transition t (Cluster.Follow hp)))
    ~apply:(repl_apply t d) ~reset:(repl_reset t d)
    ?takeover_after:t.takeover_after
    ~on_lost:(fun () -> auto_takeover t)
    ()

(* The takeover election, run on the replication thread once the primary
   has been silent past [takeover_after]. Exactly-one promotion without a
   consensus log: every contender probes the same cluster and applies the
   same [Cluster.elect], so at most one node finds itself unbeaten and
   promotes; the rest defer briefly, then find the winner and re-point to
   it. The deferral is bounded: a wedged better-ranked rival that never
   promotes costs ~15 rounds, after which we promote anyway rather than
   leave the cluster headless. Returns the primary the client should
   re-point to, or [None] once there is nothing left to follow. *)
and auto_takeover t =
  let prng =
    Xsact_util.Prng.of_int (Hashtbl.hash (Unix.getpid (), "takeover"))
  in
  let rec round deferrals =
    if (cluster t).Cluster.role = Cluster.Primary || Atomic.get t.closing then
      None
    else
      let peers = probe_cluster t in
      match Cluster.elect ~self:t.advertise ~epoch:(fence_epoch t) peers with
      | Some (Cluster.Follow hp) -> Some hp
      | None when deferrals < 15 ->
        Thread.delay (0.25 +. Xsact_util.Prng.float prng 0.2);
        round (deferrals + 1)
      | _ ->
        ignore (promote t ~join:false None);
        None
  in
  round 0

(* Promotion drains the replication client before the role can flip, so
   everything the old primary shipped lands before the first local write
   and the session-id sequence continues past it. The drain runs outside
   [cluster_lock] (the replication thread takes that lock), so a dry
   [Cluster.step] decides whether this request promotes at all.
   [join:false] is the election's path, on the replication thread
   itself. *)
and promote t ~join expected =
  let ev = Cluster.Promote expected in
  if List.mem Cluster.Stop_client (snd (Cluster.step (cluster t) ev)) then begin
    stop_client t ~join;
    Option.iter
      (fun d ->
        with_sessions t (fun sessions ->
            Session_store.ensure_next sessions (Durability.next_id d)))
      !(t.durability)
  end;
  transition t ev

(* POST /v1/promote. An optional body [{"epoch":E}] is a compare-and-set
   guard for scripted runbooks: the promotion happens only if this node's
   fencing epoch still equals [E] — otherwise 409 [stale_epoch] naming
   the current epoch and winner, and the script knows the topology moved
   under it. Idempotent: a primary answers [promoted:false]. *)
let handle_promote t req _params =
  let expected =
    match Json.of_string req.Http.body with
    | Ok j -> Option.bind (Json.member "epoch" j) Json.to_int
    | Error _ -> None
  in
  let before, after = promote t ~join:true expected in
  match expected with
  | Some e when e <> before.Cluster.epoch ->
    fencing_error ~status:409 ~code:"stale_epoch" t
      (Printf.sprintf "promote expected epoch %d but the current epoch is %d"
         e before.Cluster.epoch)
  | _ ->
    json_response ~status:200
      (Json.Obj
         [
           ("role", Json.String (Cluster.role_name after.Cluster.role));
           ("promoted", Json.Bool (before.Cluster.role <> Cluster.Primary));
           ("epoch", Json.Int after.Cluster.epoch);
         ])

(* GET /v1/epoch: the discovery/election probe. [primary] is where this
   node believes mutations go — itself when primary, its current target
   when following (the hint that lets discovery take one indirection hop
   through an already-re-pointed follower). *)
let handle_epoch t _req _params =
  json_response ~status:200 (Json.Obj (cluster_fields ?self:t.advertise t))

(* POST /v1/demote. Two distinct requests share the endpoint:

   - [{"epoch":E,"primary":"H:P"}] — a fencing probe from the epoch-E
     winner. [E] above our epoch fences us (durably, with the winner
     recorded); [E] at or below it is a stale prober and gets the 409
     that tells {e it} to stand down (a follower just acks).
   - empty body — an operator's planned step-down: stop accepting
     mutations and wait to follow whoever is promoted next. *)
let handle_demote t req _params =
  let ack c =
    json_response ~status:200
      (Json.Obj
         [
           ("role", Json.String (Cluster.role_name c.Cluster.role));
           ("epoch", Json.Int c.Cluster.epoch);
         ])
  in
  if String.trim req.Http.body = "" then
    ack (snd (transition t Cluster.Step_down))
  else
    match Json.of_string req.Http.body with
    | Error e ->
      error_response ~status:400 ~code:"bad_request" ("invalid JSON: " ^ e)
    | Ok j -> (
      match Option.bind (Json.member "epoch" j) Json.to_int with
      | None ->
        error_response ~status:400 ~code:"bad_request"
          "demote body must carry an integer \"epoch\""
      | Some e -> (
        let winner = Option.bind (Json.member "primary" j) Json.to_str in
        match transition t (Cluster.Observe { epoch = e; winner }) with
        | before, after
          when e > before.Cluster.epoch
               || before.Cluster.role <> Cluster.Primary ->
          ack after
        | before, _ ->
          fencing_error ~status:409 ~code:"stale_epoch" t
            (Printf.sprintf
               "demote carries epoch %d but this primary holds epoch %d" e
               before.Cluster.epoch)))

(* The plain-router stand-in for GET /v1/replicate: the real stream takes
   over the raw socket in [serve_connection] before dispatch ever runs,
   so reaching this handler means the request came through [handle]
   directly (unit tests) — where no streaming is possible. *)
let handle_replicate_plain _t _req _params =
  error_response ~status:501 ~code:"not_streamable"
    "replication requires a streaming connection"

(* ---- Construction and dispatch ----------------------------------------- *)

let routes_of t =
  let r meth pattern handler =
    Router.route ~meth ~pattern (fun req params -> handler t req params)
  in
  [
    r "GET" "" handle_root;
    r "GET" "health" handle_health;
    r "GET" "ready" handle_ready;
    r "GET" "datasets" handle_datasets;
    r "GET" "search" handle_search;
    r "POST" "compare" handle_compare;
    r "GET" "metrics" handle_metrics;
    r "POST" "session" handle_session_create;
    r "GET" "session" handle_session_list;
    r "GET" "session/:id" handle_session_get;
    r "POST" "session/:id/add" handle_session_add;
    r "POST" "session/:id/remove" handle_session_remove;
    r "POST" "session/:id/size" handle_session_size;
    r "POST" "session/:id/apply" handle_session_apply;
    r "PATCH" "session/:id/params" handle_session_params;
    r "DELETE" "session/:id" handle_session_delete;
    r "GET" "v1/replicate" handle_replicate_plain;
    r "POST" "v1/promote" handle_promote;
    r "GET" "v1/epoch" handle_epoch;
    r "POST" "v1/demote" handle_demote;
  ]

(* Unpinned entries the intern table keeps for reuse: contexts no warm
   session pins, so [POST /compare] and a re-created session over the
   same result set skip the rebuild. *)
let context_cache_capacity = 32

let create ?datasets ?(cache_capacity = 128) ?(incremental = true)
    ?max_context_bytes ?deadline_ms ?(max_deadline_ms = 60_000)
    ?session_ttl_s ?max_sessions ?state_dir
    ?(fsync = Xsact_persist.Journal.Interval 0.1) ?(snapshot_every = 256)
    ?replica_of ?(peers = []) ?takeover_after () =
  (match deadline_ms with
  | Some ms when ms < 1 ->
    invalid_arg "Server.create: deadline_ms must be positive"
  | _ -> ());
  if replica_of <> None && state_dir = None then
    invalid_arg "Server.create: replica_of requires state_dir";
  (match takeover_after with
  | Some s when not (s > 0.) ->
    invalid_arg "Server.create: takeover_after must be positive"
  | _ -> ());
  if max_deadline_ms < 1 then
    invalid_arg "Server.create: max_deadline_ms must be positive";
  if snapshot_every < 0 then
    invalid_arg "Server.create: snapshot_every must be non-negative";
  (match max_context_bytes with
  | Some b when b < 1 ->
    invalid_arg "Server.create: max_context_bytes must be positive"
  | _ -> ());
  let names = Option.value datasets ~default:Dataset.names in
  let entries =
    List.map
      (fun name ->
        match Dataset.by_name name with
        | None -> invalid_arg ("Server.create: unknown dataset " ^ name)
        | Some ds ->
          (name, { dataset = ds; pipeline = Pipeline.create ds.Dataset.document }))
      names
  in
  (* The store's event hook is always installed and runs under
     [session_update], like every store call: removal events release the
     departing cell's intern reference (which is why the intern table
     exists before the store), and — once [recover] fills the durability
     cell — journal the mutation. Until then (and always, without a state
     dir) the durability half is inert. Recovery itself restores entries
     without events, so replay never re-journals. *)
  let intern =
    Intern.create ?max_bytes:max_context_bytes
      ~cache_capacity:context_cache_capacity ()
  in
  let durability = ref None in
  let on_event ev =
    (match ev with
    | Session_store.Removed { value = st; _ }
    | Session_store.Expired { value = st; _ }
    | Session_store.Evicted { value = st; _ } ->
      release_cell ~incremental intern st
    | Session_store.Created _ | Session_store.Updated _ -> ());
    match !durability with None -> () | Some d -> log_event d ev
  in
  let t =
    {
      entries;
      cache = Lru.create ~capacity:cache_capacity;
      intern;
      lock = Mutex.create ();
      inflight = Hashtbl.create 8;
      inflight_done = Condition.create ();
      session_update = Mutex.create ();
      metrics = Metrics.create ();
      sessions = Session_store.create ?ttl_s:session_ttl_s
                   ?capacity:max_sessions ~on_event ();
      incremental;
      max_context_bytes;
      default_deadline_ms = deadline_ms;
      max_deadline_ms;
      inflight_now = Atomic.make 0;
      threads = 0;
      persist =
        Option.map (fun dir -> (dir, fsync, snapshot_every)) state_dir;
      durability;
      ready = Atomic.make (state_dir = None);
      cluster = Atomic.make (Cluster.init ?primary:replica_of ());
      cluster_lock = Mutex.create ();
      replica_of;
      takeover_after;
      repl_client = ref None;
      streams = Atomic.make 0;
      peers;
      advertise = None;
      closing = Atomic.make false;
      routes = [];
      queue_depth = (fun () -> 0);
      overloaded = (fun () -> false);
    }
  in
  t.routes <- routes_of t;
  t

(* ---- Recovery ----------------------------------------------------------- *)

let recover t =
  match (t.persist, !(t.durability)) with
  | None, _ -> Atomic.set t.ready true
  | Some _, Some _ -> ()  (* already recovered *)
  | Some (dir, fsync, snapshot_every), None ->
    let d, recovered = Durability.recover ~dir ~fsync ~snapshot_every in
    install_sessions t d ~eager:false recovered.Durability.entries;
    with_sessions t (fun sessions ->
        Session_store.ensure_next sessions recovered.Durability.next_id);
    t.durability := Some d;
    ignore
      (transition t
         (Cluster.Recovered
            {
              epoch = Durability.fence_epoch d;
              winner = Durability.fence_winner d;
            }));
    (* Boot-time fencing probe: a would-be primary with a peer list asks
       who else is alive before serving its first mutation — a live
       primary at or above our epoch is the cluster's truth, so we join
       it as a follower instead of forking history. *)
    if (cluster t).Cluster.role = Cluster.Primary && t.peers <> [] then
      Option.iter
        (fun hp -> ignore (transition t (Cluster.Follow hp)))
        (discover_primary t);
    (* A follower is ready on local recovery — it serves reads
       immediately and reports its lag/liveness on /ready while the
       replication client catches up (or elects a replacement for a
       dead primary). *)
    ensure_client t;
    Atomic.set t.ready true

let dispatch t req =
  let started = Unix.gettimeofday () in
  let route, resp =
    match Router.dispatch t.routes req with
    | `Matched (route, handler, params) ->
      let resp =
        try handler req params
        with e ->
          error_response ~status:500 ~code:"internal"
            ("internal error: " ^ Printexc.to_string e)
      in
      (route, resp)
    | `Method_not_allowed allowed ->
      ( "405",
        Http.response
          ~headers:[ ("Allow", String.concat ", " allowed) ]
          ~status:405
          (Api.error_body ~code:"method_not_allowed" "method not allowed") )
    | `Not_found ->
      ("404", error_response ~status:404 ~code:"not_found" "not found")
  in
  Metrics.record t.metrics ~route ~status:resp.Http.status
    ~elapsed_s:(Unix.gettimeofday () -. started);
  resp

let handle t req =
  Atomic.incr t.inflight_now;
  Fun.protect ~finally:(fun () -> Atomic.decr t.inflight_now) @@ fun () ->
  (* Readiness gate: until recovery completes, only the probes answer —
     serving (or worse, mutating) session state mid-replay would race the
     restore. One atomic load when ready; no cost without a state dir. *)
  if
    (not (Atomic.get t.ready))
    && (match req.Http.path with
       | [ "health" ] | [ "ready" ] -> false
       | _ -> true)
  then begin
    Metrics.record t.metrics ~route:"unready" ~status:503 ~elapsed_s:0.;
    Http.response
      ~headers:[ ("Retry-After", "1") ]
      ~status:503
      (Api.error_body ~code:"unavailable"
         "unavailable: state recovery in progress")
  end
  else
    (* Follower write gate: reads (every GET), POST /compare (a pure
       computation over read state) and the topology verbs pass; anything
       that would mutate session state is refused — a follower's journal
       holds only what the primary shipped. A {e fenced} ex-primary
       answers 409 naming the winner's epoch and address (a client still
       pointed here must re-point, not retry); an ordinary follower
       answers 503 hinting at the primary it currently follows. *)
    let access =
      match (req.Http.meth, req.Http.path) with
      | "GET", _ | "POST", ([ "compare" ] | [ "v1"; ("promote" | "demote") ])
        ->
        Cluster.Read
      | _ -> Cluster.Write
    in
    let c = cluster t in
    match Cluster.gate c access with
    | Cluster.Refuse_fenced ->
      Metrics.record t.metrics ~route:"fenced" ~status:409 ~elapsed_s:0.;
      fencing_error ~status:409 ~code:"fenced" t
        (Printf.sprintf
           "fenced: a newer primary holds epoch %d; mutations go there"
           c.Cluster.epoch)
    | Cluster.Refuse_follower ->
      Metrics.record t.metrics ~route:"follower" ~status:503 ~elapsed_s:0.;
      let hint =
        match c.Cluster.primary with
        | Some hp -> Printf.sprintf "; primary at %s" (addr_string hp)
        | None -> ""
      in
      error_response ~status:503 ~code:"follower"
        ("read-only follower: mutations go to the primary" ^ hint)
    | Cluster.Allow | Cluster.Superseded -> dispatch t req

(* ---- Serving ----------------------------------------------------------- *)

type job = Conn of Unix.file_descr | Quit

type running = {
  server : t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  idle_timeout : float;
  max_pending : int;  (* admission bound on queued connections *)
  accept_stop : bool Atomic.t;  (* the only way the acceptor exits *)
  jobs : job Queue.t;
  jobs_mutex : Mutex.t;
  jobs_cond : Condition.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;  (* live; under conns_mutex *)
  conns_mutex : Mutex.t;
  mutable stopping : bool;  (* under conns_mutex *)
  mutable workers : Thread.t list;
  mutable acceptor : Thread.t option;
}

let push r job =
  Mutex.lock r.jobs_mutex;
  Queue.push job r.jobs;
  Condition.signal r.jobs_cond;
  Mutex.unlock r.jobs_mutex

(* Admission control: enqueue the connection unless the pending queue is
   already at [max_pending] — the depth check and the push are one critical
   section, so the bound is exact. *)
let try_enqueue r fd =
  Mutex.lock r.jobs_mutex;
  let admitted = Queue.length r.jobs < r.max_pending in
  if admitted then begin
    Queue.push (Conn fd) r.jobs;
    Condition.signal r.jobs_cond
  end;
  Mutex.unlock r.jobs_mutex;
  admitted

let pop r =
  Mutex.lock r.jobs_mutex;
  while Queue.is_empty r.jobs do
    Condition.wait r.jobs_cond r.jobs_mutex
  done;
  let job = Queue.pop r.jobs in
  Mutex.unlock r.jobs_mutex;
  job

(* Serve requests on [fd] until the client closes, errors, or idles past
   SO_RCVTIMEO (a timed-out channel read raises [Sys_error]/[Unix_error],
   absorbed below like any torn connection). Does not close [fd] — the
   worker does, after unregistering it, so a recycled descriptor number
   can never evict a live connection from the tracking table.

   GET /v1/replicate is intercepted here, before dispatch: it takes over
   the raw socket for its whole lifetime and streams the journal until
   the follower disconnects or the server stops — pinning this worker,
   the documented cost of a follower (one worker of the pool per live
   follower; the default pool of 4 leaves 3 serving). *)
let serve_connection r fd =
  let t = r.server in
  (* The channels own a duplicate of [fd], closed with them at the end of
     the connection. Closing an out channel drops what a failed flush left
     in its buffer; an unclosed one keeps it, and the runtime flushes it at
     exit into whatever file then holds the descriptor number. *)
  let cfd = Unix.dup fd in
  let ic = Unix.in_channel_of_descr cfd in
  let oc = Unix.out_channel_of_descr cfd in
  let rec loop () =
    match Http.read_request ic with
    | Error `Eof -> ()
    | Error (`Bad msg) ->
      Http.write_response oc ~keep_alive:false
        (Http.response ~status:400 (Api.error_body ~code:"bad_request" msg))
    | Error (`Refuse (status, msg)) ->
      Metrics.record t.metrics ~route:"refused" ~status ~elapsed_s:0.;
      Http.write_response oc ~keep_alive:false
        (Http.response ~status (Api.error_body ~code:"refused" msg))
    | Ok req
      when req.Http.meth = "GET" && req.Http.path = [ "v1"; "replicate" ] -> (
      let int_param name =
        Option.bind (query_param req name) int_of_string_opt
      in
      let sub_epoch = Option.value ~default:0 (int_param "epoch") in
      let reply ~status resp =
        Metrics.record t.metrics ~route:"v1/replicate" ~status ~elapsed_s:0.;
        Http.write_response oc ~keep_alive:false resp
      in
      let unavailable ~code msg =
        Http.response
          ~headers:[ ("Retry-After", "1") ]
          ~status:503 (Api.error_body ~code msg)
      in
      match (Atomic.get t.ready, !(t.durability)) with
      | true, Some d -> (
        match Cluster.gate (cluster t) (Cluster.Subscribe sub_epoch) with
        | Cluster.Superseded ->
          (* A subscriber ahead of us proves we were superseded while we
             were not looking (it adopted its epoch from the real winner):
             self-demote before streaming a single stale record. *)
          ignore
            (transition t (Cluster.Observe { epoch = sub_epoch; winner = None }));
          reply ~status:409
            (fencing_error ~status:409 ~code:"fenced" t
               (Printf.sprintf
                  "fenced: subscriber holds epoch %d above this node's"
                  sub_epoch))
        | Cluster.Allow ->
          Metrics.record t.metrics ~route:"v1/replicate" ~status:200
            ~elapsed_s:0.;
          Atomic.incr t.streams;
          Fun.protect
            ~finally:(fun () -> Atomic.decr t.streams)
            (fun () ->
              Replication.serve_stream ~durability:d ~oc
                ?boot:(query_param req "boot") ?gen:(int_param "gen")
                ?from:(int_param "from")
                ~stopping:(fun () ->
                  Atomic.get r.accept_stop
                  || (cluster t).Cluster.role <> Cluster.Primary)
                ())
          (* the stream ends the connection — no keep-alive *)
        | Cluster.Refuse_follower | Cluster.Refuse_fenced ->
          (* only a primary has a journal worth shipping; a follower
             relaying its own mirror would hide divergence *)
          reply ~status:503
            (unavailable ~code:"not_primary"
               ("not primary: replication streams come from the primary"
               ^
               match (cluster t).Cluster.primary with
               | Some hp -> " at " ^ addr_string hp
               | None -> "")))
      | _ ->
        reply ~status:503
          (unavailable ~code:"unavailable" "replication source not ready"))
    | Ok req ->
      let resp = handle t req in
      let keep_alive = not (Http.wants_close req) in
      (* The failpoint stands in for a client that vanished mid-response:
         Injected is absorbed below exactly like the EPIPE it simulates. *)
      Xsact_util.Failpoint.hit "socket.write";
      Http.write_response oc ~keep_alive resp;
      if keep_alive then loop ()
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      try loop () with
      | Sys_error _ | End_of_file | Unix.Unix_error _
      | Xsact_util.Failpoint.Injected _ ->
        ())

(* Register [fd] as a live connection so [stop] can shut it down; refused
   once [stopping] is set (the worker then just closes the socket). *)
let register r fd =
  Mutex.lock r.conns_mutex;
  let accepted = not r.stopping in
  if accepted then Hashtbl.replace r.conns fd ();
  Mutex.unlock r.conns_mutex;
  accepted

let unregister r fd =
  Mutex.lock r.conns_mutex;
  Hashtbl.remove r.conns fd;
  Mutex.unlock r.conns_mutex

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let worker_loop r () =
  let rec go () =
    match pop r with
    | Quit -> ()
    | Conn fd ->
      if register r fd then
        Fun.protect
          ~finally:(fun () ->
            unregister r fd;
            close_quietly fd)
          (fun () ->
            (* Belt and braces: serve_connection absorbs the expected
               connection-level exceptions, and this catch-all keeps any
               surprise from killing a pool worker — a dead worker would
               silently shrink the pool for the daemon's whole life. *)
            try serve_connection r fd with _ -> ())
      else close_quietly fd;
      go ()
  in
  go ()

(* Shed one connection with 503 + Retry-After, off the acceptor thread so
   a slow or dead client cannot stall accepts. The close lingers: write,
   shutdown our sending side, then drain the client's bytes (bounded by a
   short read timeout) before closing — closing with unread request bytes
   in the kernel buffer would RST the connection and discard the very 503
   we are trying to deliver. *)
let shed fd =
  (try
     (* The channel owns a duplicate of [fd] and is closed with it, for
        the reason [serve_connection]'s are: an unclosed out channel keeps
        what a failed write left in its buffer, and the runtime flushes it
        at exit into whatever file then holds the descriptor number. *)
     let oc = Unix.out_channel_of_descr (Unix.dup fd) in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         Http.write_response oc ~keep_alive:false
           (Http.response
              ~headers:[ ("Retry-After", "1") ]
              ~status:503
              (Api.error_body ~code:"overloaded"
                 "server overloaded; retry shortly")));
     (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
     (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
      with Unix.Unix_error _ | Invalid_argument _ -> ());
     let buf = Bytes.create 1024 in
     while Unix.read fd buf 0 (Bytes.length buf) > 0 do
       ()
     done
   with Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
  close_quietly fd

let shed_overload r fd =
  Metrics.incr_counter r.server.metrics "requests_shed";
  Metrics.record r.server.metrics ~route:"shed" ~status:503 ~elapsed_s:0.;
  ignore (Thread.create shed fd)

let acceptor_loop r () =
  let initial_backoff = 0.001 in
  let backoff = ref initial_backoff in
  let rec go () =
    if Atomic.get r.accept_stop then ()
    else
      match Unix.accept r.listen_fd with
      | fd, _ ->
        backoff := initial_backoff;
        (* Bound every read so an idle or slow-loris connection releases
           its worker instead of pinning it forever. *)
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO r.idle_timeout
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        if not (try_enqueue r fd) then shed_overload r fd;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
        (* EMFILE/ENFILE/ECONNABORTED/ENOBUFS and kin are transient — fd
           pressure clears when connections close, aborted handshakes just
           go away. Exiting here would wedge the daemon (bound port, no
           acceptor), so back off and retry; the only exit is [stop]
           flipping [accept_stop] before shutting the listener down. *)
        if Atomic.get r.accept_stop then ()
        else begin
          Metrics.incr_counter r.server.metrics "accept_retries";
          Thread.delay !backoff;
          backoff := Float.min 0.5 (!backoff *. 2.);
          go ()
        end
  in
  go ()

let start ?(threads = 4) ?(idle_timeout = 30.) ?(max_pending = 64) ~port t =
  if threads < 1 then invalid_arg "Server.start: threads must be positive";
  if idle_timeout <= 0. then
    invalid_arg "Server.start: idle_timeout must be positive";
  if max_pending < 1 then
    invalid_arg "Server.start: max_pending must be positive";
  t.threads <- threads;
  (* A client that disconnects mid-response must surface as EPIPE on the
     write (absorbed in serve_connection), not as process-fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let r =
    {
      server = t;
      listen_fd;
      bound_port;
      idle_timeout;
      max_pending;
      accept_stop = Atomic.make false;
      jobs = Queue.create ();
      jobs_mutex = Mutex.create ();
      jobs_cond = Condition.create ();
      conns = Hashtbl.create 16;
      conns_mutex = Mutex.create ();
      stopping = false;
      workers = [];
      acceptor = None;
    }
  in
  (* Expose queue pressure to the handlers: /metrics reports the depth, and
     the /compare degradation ladder downgrades algorithms once the backlog
     reaches half the admission bound (the queue is filling faster than the
     workers drain it — shedding is next). *)
  t.queue_depth <-
    (fun () ->
      Mutex.lock r.jobs_mutex;
      let n = Queue.length r.jobs in
      Mutex.unlock r.jobs_mutex;
      n);
  let overload_mark = max 1 (max_pending / 2) in
  t.overloaded <- (fun () -> t.queue_depth () >= overload_mark);
  (* What the fencer announces and elections rank by; the listener binds
     loopback, so the bound port names this node uniquely per host. *)
  t.advertise <- Some ("127.0.0.1", bound_port);
  r.workers <- List.init threads (fun _ -> Thread.create (worker_loop r) ());
  r.acceptor <- Some (Thread.create (acceptor_loop r) ());
  r

let port r = r.bound_port

let stop r =
  (* The flag goes first: the acceptor retries every accept error {e except}
     when accept_stop is set, so the shutdown-induced error below is its
     exit signal rather than a transient to back off on. [closing] lets
     the fencer and election loops wind down on their own (they are not
     joined — they only probe peers and sleep). *)
  Atomic.set r.server.closing true;
  Atomic.set r.accept_stop true;
  (* shutdown (not just close) — close from another thread does not wake a
     blocked accept(2), shutdown makes it return EINVAL *)
  (try Unix.shutdown r.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  Option.iter Thread.join r.acceptor;
  (try Unix.close r.listen_fd with Unix.Unix_error _ -> ());
  List.iter (fun _ -> push r Quit) r.workers;
  (* Wake workers blocked reading an idle keep-alive connection: shutdown
     every live socket so the pending read returns EOF immediately instead
     of holding the join until the idle timeout fires. [stopping] makes
     workers close (not serve) any connection still queued behind the
     poison pills. *)
  Mutex.lock r.conns_mutex;
  r.stopping <- true;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    r.conns;
  Mutex.unlock r.conns_mutex;
  List.iter Thread.join r.workers;
  (* A follower also quiesces its replication client before the final
     flush, so an in-flight apply lands (or is abandoned at a clean
     record boundary) first. *)
  (match !(r.server.repl_client) with
  | Some c -> Replication.stop_client c
  | None -> ());
  (* Drain-then-snapshot: every worker has exited, so the state is quiet —
     checkpoint it and fsync, leaving a restart with an empty journal to
     replay and the fastest possible recovery. The journal flush comes
     {e first} and unconditionally: under [Interval] fsync the last
     interval's acked records may still ride only on the page cache, and
     the snapshot below can stall or die (disk full, injected fault) —
     a clean [stop] must never be the reason an acked record is lost.
     The snapshot is a pure accelerator after that barrier, so its
     failure is absorbed. *)
  match !(r.server.durability) with
  | None -> ()
  | Some d ->
    Durability.flush d;
    (try Durability.snapshot_now d with _ -> ())
