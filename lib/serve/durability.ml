module Store = Xsact_persist.Store
module Journal = Xsact_persist.Journal
module Crc32 = Xsact_persist.Crc32

type t = {
  mutex : Mutex.t;
  store : Store.t;
  (* id -> (last mutation stamp, entry json): the replay fold, maintained
     live so compaction never reads the session store *)
  mirror : (string, float * Json.t) Hashtbl.t;
  snapshot_every : int;
  mutable since_snapshot : int;
  (* monotone over the directory's whole history (snapshot meta carries
     it), so ids are never reused even after every session is deleted *)
  mutable max_id : int;
  mutable recovery_ms : float;
  recovery_truncated : int;
  mutable recovered_sessions : int;
  mutable dropped : int;
  (* process-unique: a follower whose replication cursor carries a stale
     boot id resyncs rather than trusting byte offsets across restarts *)
  boot_id : string;
  mutable replayed : int;
  (* failover fencing epoch (DESIGN.md §14): a durable, monotone counter
     minted at every promotion — NOT the compaction generation [gen],
     which merely invalidates journal byte offsets. [fence_winner] is
     recorded when a higher epoch fences this node while it was primary:
     the winner's HOST:PORT, so a restart boots fenced (read-only,
     following the winner) instead of resurrecting a split brain. *)
  mutable fence_epoch : int;
  mutable fence_winner : string option;
}

type recovered = {
  entries : (string * float * Json.t) list;
  next_id : int;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let id_number id =
  if String.length id > 1 && id.[0] = 's' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

(* ---- Payload codec ------------------------------------------------------ *)

let meta_payload ~next =
  Json.to_string (Json.Obj [ ("meta", Json.Int 1); ("next", Json.Int next) ])

let entry_payload ~id ~at entry =
  Json.to_string
    (Json.Obj
       [ ("id", Json.String id); ("t", Json.Float at); ("entry", entry) ])

let op_payload ~op ~id ?at ?entry () =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.String op); ("id", Json.String id) ]
       @ (match at with Some at -> [ ("t", Json.Float at) ] | None -> [])
       @ match entry with Some e -> [ ("entry", e) ] | None -> []))

(* ---- Replay fold -------------------------------------------------------- *)

let upsert_ops = [ "create"; "add"; "remove"; "size"; "apply"; "params"; "set" ]
let delete_ops = [ "delete"; "expire"; "evict" ]

type parsed =
  | P_upsert of { id : string; at : float; entry : Json.t }
  | P_delete of string
  | P_meta of int
  | P_unknown

let parse_payload payload =
  match Json.of_string payload with
  | Error _ -> P_unknown
  | Ok json -> (
    let mem name = Json.member name json in
    match Option.bind (mem "next") Json.to_int with
    | Some next -> P_meta next (* snapshot meta *)
    | None -> (
      match
        ( Option.bind (mem "id") Json.to_str,
          Option.bind (mem "t") Json.to_float,
          mem "entry",
          Option.bind (mem "op") Json.to_str )
      with
      | Some id, Some at, Some entry, None ->
        (* snapshot entry record *)
        P_upsert { id; at; entry }
      | Some id, at, entry, Some op when List.mem op upsert_ops -> (
        match (at, entry) with
        | Some at, Some entry -> P_upsert { id; at; entry }
        | _ -> P_unknown)
      | Some id, _, _, Some op when List.mem op delete_ops -> P_delete id
      | _ -> P_unknown))

let fold_payload t payload =
  let track_id id =
    match id_number id with
    | Some n -> t.max_id <- max t.max_id n
    | None -> ()
  in
  let parsed = parse_payload payload in
  (match parsed with
  | P_meta next -> t.max_id <- max t.max_id (next - 1)
  | P_upsert { id; at; entry } ->
    track_id id;
    Hashtbl.replace t.mirror id (at, entry)
  | P_delete id ->
    track_id id;
    Hashtbl.remove t.mirror id
  | P_unknown -> t.dropped <- t.dropped + 1);
  parsed

(* ---- Compaction ---------------------------------------------------------- *)

(* Callers hold [t.mutex]. Mirror entries are sorted by session number so
   the snapshot — and therefore recovery — is deterministic. *)
let sorted_entries t =
  Hashtbl.fold (fun id (at, e) acc -> (id, at, e) :: acc) t.mirror []
  |> List.sort (fun (a, _, _) (b, _, _) ->
         compare
           (Option.value ~default:max_int (id_number a), a)
           (Option.value ~default:max_int (id_number b), b))

let compact_locked t =
  let payloads =
    meta_payload ~next:(t.max_id + 1)
    :: List.map (fun (id, at, e) -> entry_payload ~id ~at e) (sorted_entries t)
  in
  Store.compact t.store payloads;
  t.since_snapshot <- 0

let after_append t =
  t.since_snapshot <- t.since_snapshot + 1;
  if t.snapshot_every > 0 && t.since_snapshot >= t.snapshot_every then
    compact_locked t

(* ---- Fencing epoch file -------------------------------------------------- *)

(* One JSON line in <state-dir>/epoch, written atomically (tmp + rename +
   fsync file and directory): {"epoch":E} on a primary, {"epoch":E,
   "winner":"HOST:PORT"} on a fenced ex-primary. Missing or unparseable
   reads as epoch 0 — a fresh directory has never been promoted. *)

let epoch_path dir = Filename.concat dir "epoch"

let read_fence dir =
  match
    In_channel.with_open_bin (epoch_path dir) In_channel.input_all
  with
  | exception Sys_error _ -> (0, None)
  | s -> (
    match Json.of_string (String.trim s) with
    | Error _ -> (0, None)
    | Ok j ->
      ( Option.value ~default:0 (Option.bind (Json.member "epoch" j) Json.to_int),
        Option.bind (Json.member "winner" j) Json.to_str ))

let write_fence dir ~epoch ~winner =
  let path = epoch_path dir in
  let tmp = path ^ ".tmp" in
  let json =
    Json.Obj
      (("epoch", Json.Int epoch)
      ::
      (match winner with
      | Some w -> [ ("winner", Json.String w) ]
      | None -> []))
  in
  let oc = open_out_bin tmp in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path;
  try
    let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  with Unix.Unix_error _ -> ()

let recovered_locked t = { entries = sorted_entries t; next_id = t.max_id + 1 }

(* ---- Public -------------------------------------------------------------- *)

let recover ~dir ~fsync ~snapshot_every =
  let t0 = Unix.gettimeofday () in
  let store, rec_ = Store.open_dir ~fsync dir in
  let fence_epoch, fence_winner = read_fence dir in
  let t =
    {
      mutex = Mutex.create ();
      store;
      mirror = Hashtbl.create 16;
      snapshot_every;
      since_snapshot = List.length rec_.Store.journal;
      max_id = 0;
      recovery_ms = 0.;
      recovery_truncated = rec_.Store.truncated_records;
      recovered_sessions = 0;
      dropped = 0;
      boot_id =
        Printf.sprintf "%d-%.6f" (Unix.getpid ()) (Unix.gettimeofday ());
      replayed = 0;
      fence_epoch;
      fence_winner;
    }
  in
  let payloads = rec_.Store.snapshot @ rec_.Store.journal in
  List.iter (fun p -> ignore (fold_payload t p)) payloads;
  t.replayed <- List.length payloads;
  t.recovered_sessions <- Hashtbl.length t.mirror;
  t.recovery_ms <- 1000. *. (Unix.gettimeofday () -. t0);
  (t, recovered_locked t)

let log_upsert t ~op ~id ~at ~entry =
  locked t (fun () ->
      Store.append t.store (op_payload ~op ~id ~at ~entry ());
      (match id_number id with
      | Some n -> t.max_id <- max t.max_id n
      | None -> ());
      Hashtbl.replace t.mirror id (at, entry);
      after_append t)

let log_delete t ~op ~id =
  locked t (fun () ->
      Store.append t.store (op_payload ~op ~id ());
      Hashtbl.remove t.mirror id;
      after_append t)

let mark_dropped t = locked t (fun () -> t.dropped <- t.dropped + 1)

let snapshot_now t =
  locked t (fun () ->
      compact_locked t;
      Store.sync t.store)

let flush t = locked t (fun () -> Store.sync t.store)

(* ---- Replication --------------------------------------------------------- *)

(* A digest of the replay fold itself — not of journal bytes, which
   legitimately differ across replicas (compaction timing, op-vs-snapshot
   framing). Two replicas whose folds agree serve identical recoveries,
   which is the property failover needs. Callers hold [t.mutex]. *)
let digest_locked t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (id, at, e) ->
      Buffer.add_string buf (entry_payload ~id ~at e);
      Buffer.add_char buf '\n')
    (sorted_entries t);
  Int32.to_int (Crc32.string (Buffer.contents buf)) land 0xFFFFFFFF

let digest t = locked t (fun () -> digest_locked t)
let boot_id t = t.boot_id
let journal_file t = Store.journal_file t.store
let gen t = locked t (fun () -> Store.snapshots_total t.store)

let fence_epoch t = locked t (fun () -> t.fence_epoch)
let fence_winner t = locked t (fun () -> t.fence_winner)

(* The epoch never regresses: a lower [epoch] is ignored outright, an
   equal one can only update the winner. Persisted before the fields
   change meaning to callers — the write is the fence. *)
let set_fence t ~epoch ?winner () =
  locked t (fun () ->
      if
        epoch > t.fence_epoch
        || (epoch = t.fence_epoch && winner <> t.fence_winner)
      then begin
        let epoch = max epoch t.fence_epoch in
        write_fence (Store.dir t.store) ~epoch ~winner;
        t.fence_epoch <- epoch;
        t.fence_winner <- winner
      end)
let journal_offset t = locked t (fun () -> Store.journal_offset t.store)
let since_snapshot t = locked t (fun () -> t.since_snapshot)
let replayed_records t = locked t (fun () -> t.replayed)
let next_id t = locked t (fun () -> t.max_id + 1)

type resync = {
  r_boot : string;
  r_gen : int;
  r_offset : int;
  r_records : int;
  r_digest : int;
  r_payloads : string list;
}

let resync t =
  locked t (fun () ->
      {
        r_boot = t.boot_id;
        r_gen = Store.snapshots_total t.store;
        r_offset = Store.journal_offset t.store;
        r_records = t.since_snapshot;
        r_digest = digest_locked t;
        r_payloads =
          meta_payload ~next:(t.max_id + 1)
          :: List.map
               (fun (id, at, e) -> entry_payload ~id ~at e)
               (sorted_entries t);
      })

let install_resync t payloads =
  locked t (fun () ->
      Hashtbl.reset t.mirror;
      List.iter (fun p -> ignore (fold_payload t p)) payloads;
      t.replayed <- t.replayed + List.length payloads;
      (* Fold the primary's full state into our own snapshot immediately:
         the follower's directory is self-sufficient from the first
         heartbeat on — killing it and recovering locally replays exactly
         the primary's acked state. *)
      compact_locked t;
      Store.sync t.store;
      recovered_locked t)

let append_replicated t payload =
  locked t (fun () ->
      Store.append t.store payload;
      let parsed = fold_payload t payload in
      t.replayed <- t.replayed + 1;
      after_append t;
      parsed)

let stats_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("state_dir", Json.String (Store.dir t.store));
          ( "fsync_policy",
            Json.String (Journal.policy_to_string (Store.policy t.store)) );
          ("journal_appends", Json.Int (Store.journal_appends t.store));
          ("journal_bytes", Json.Int (Store.journal_bytes t.store));
          ("snapshots_total", Json.Int (Store.snapshots_total t.store));
          ("since_snapshot", Json.Int t.since_snapshot);
          ("recovery_ms", Json.Float t.recovery_ms);
          ("recovery_truncated_records", Json.Int t.recovery_truncated);
          ("recovered_sessions", Json.Int t.recovered_sessions);
          ("recovery_dropped", Json.Int t.dropped);
          ("journal_offset", Json.Int (Store.journal_offset t.store));
          ("state_digest", Json.Int (digest_locked t));
          ("fence_epoch", Json.Int t.fence_epoch);
          ( "fence_winner",
            match t.fence_winner with
            | Some w -> Json.String w
            | None -> Json.Null );
        ])
