module Journal = Xsact_persist.Journal
module Failpoint = Xsact_util.Failpoint
module Prng = Xsact_util.Prng

(* ---- Wire format --------------------------------------------------------
   One JSON object per HTTP chunk, newline-terminated (x-ndjson):

     {"repl":"resync","boot":B,"gen":G,"epoch":E,"offset":O,"records":N,
      "digest":D,"payloads":[...],"warm":[...]}   full-state handover
     {"repl":"rec","o":O,"p":P}             one journal record; O = the
                                            follower's cursor after it
     {"repl":"hb","gen":G,"epoch":E,"records":N,"digest":D}   liveness +
                                            lag + divergence probe

   [gen] is the primary's compaction generation (validates byte offsets);
   [epoch] is its durable fencing epoch (validates who is primary at
   all). Journal payloads are JSON one-liners (text), so they embed in
   JSON strings safely; the optional [warm] section of a resync carries
   base64-armored context-snapshot records, so binary still never
   crosses the stream raw. *)

let json_of_resync ~epoch ~warm (r : Durability.resync) =
  Json.Obj
    [
      ("repl", Json.String "resync");
      ("boot", Json.String r.Durability.r_boot);
      ("gen", Json.Int r.Durability.r_gen);
      ("epoch", Json.Int epoch);
      ("offset", Json.Int r.Durability.r_offset);
      ("records", Json.Int r.Durability.r_records);
      ("digest", Json.Int r.Durability.r_digest);
      ( "payloads",
        Json.List (List.map (fun p -> Json.String p) r.Durability.r_payloads)
      );
      ("warm", Json.List (List.map (fun w -> Json.String w) warm));
    ]

(* ---- Socket helpers ------------------------------------------------------ *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* ---- Primary: the stream ------------------------------------------------- *)

let poll_interval_s = 0.045
let heartbeat_interval_s = 0.2

let stream_head =
  "HTTP/1.1 200 OK\r\n\
   Content-Type: application/x-ndjson\r\n\
   Transfer-Encoding: chunked\r\n\
   Connection: close\r\n\
   \r\n"

let send_chunk fd line =
  let data = line ^ "\n" in
  write_all fd (Printf.sprintf "%x\r\n%s\r\n" (String.length data) data)

(* Serve one follower over [fd] until it disconnects or [stopping ()].
   The caller already consumed the request; this writes the whole
   response, chunk by chunk, as journal records are acked. [boot], [gen]
   and [from] are the follower's cursor (absent on a cold connect): when
   they name a live position in our current journal the stream resumes
   there, otherwise it opens with a full resync. [warm] supplies the
   base64-armored context-snapshot records a resync ships (empty when
   warm resyncs are disabled). *)
let serve_stream ~durability:d ~fd ?boot ?gen ?from ?(warm = fun () -> [])
    ~stopping () =
  write_all fd stream_head;
  (* (gen, offset) the next record must continue from; [None] forces a
     resync. The boot id is checked once — ours never changes. *)
  let cursor =
    ref
      (match (boot, gen, from) with
      | Some b, Some g, Some o
        when b = Durability.boot_id d
             && g = Durability.gen d
             && o >= 0
             && o <= Durability.journal_offset d ->
        Some (g, o)
      | _ -> None)
  in
  let last_hb = ref 0. in
  let send_hb () =
    last_hb := Unix.gettimeofday ();
    send_chunk fd
      (Json.to_string
         (Json.Obj
            [
              ("repl", Json.String "hb");
              ("gen", Json.Int (Durability.gen d));
              ("epoch", Json.Int (Durability.fence_epoch d));
              ("records", Json.Int (Durability.since_snapshot d));
              ("digest", Json.Int (Durability.digest d));
            ]))
  in
  let send_resync () =
    let r = Durability.resync d in
    send_chunk fd
      (Json.to_string
         (json_of_resync ~epoch:(Durability.fence_epoch d) ~warm:(warm ()) r));
    cursor := Some (r.Durability.r_gen, r.Durability.r_offset);
    last_hb := Unix.gettimeofday ()
  in
  (try
     if !cursor = None then send_resync () else send_hb ();
     while not (stopping ()) do
       (match !cursor with
       | None -> send_resync ()
       | Some (g, off) ->
         if Durability.gen d <> g then
           (* Compaction invalidated every offset; hand over fresh state.
              The follower's LWW fold makes the records it already
              applied from the dying generation harmless. *)
           send_resync ()
         else
           let tail =
             Journal.read_from ~offset:off (Durability.journal_file d)
           in
           if tail.Journal.torn then send_resync ()
           else begin
             let off =
               List.fold_left
                 (fun off p ->
                   let off = off + Journal.header_bytes + String.length p in
                   send_chunk fd
                     (Json.to_string
                        (Json.Obj
                           [
                             ("repl", Json.String "rec");
                             ("o", Json.Int off);
                             ("p", Json.String p);
                           ]));
                   off)
                 off tail.Journal.records
             in
             cursor := Some (g, off);
             if tail.Journal.records = [] then Thread.delay poll_interval_s
           end);
       if Unix.gettimeofday () -. !last_hb >= heartbeat_interval_s then
         send_hb ()
     done;
     (* Clean end-of-stream so a follower that outlives us sees EOF fast. *)
     write_all fd "0\r\n\r\n"
   with Unix.Unix_error _ | Sys_error _ -> (* follower gone *) ());
  ()

(* ---- Follower: buffered chunked reader ----------------------------------- *)

type rdr = { fd : Unix.file_descr; mutable pending : string; tmp : Bytes.t }

let reader fd = { fd; pending = ""; tmp = Bytes.create 65536 }

let refill r =
  let n = Unix.read r.fd r.tmp 0 (Bytes.length r.tmp) in
  if n = 0 then raise End_of_file;
  r.pending <- r.pending ^ Bytes.sub_string r.tmp 0 n

let rec read_line r =
  match String.index_opt r.pending '\n' with
  | Some i ->
    let line = String.sub r.pending 0 i in
    r.pending <-
      String.sub r.pending (i + 1) (String.length r.pending - i - 1);
    if String.length line > 0 && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  | None ->
    refill r;
    read_line r

let rec read_exact r n =
  if String.length r.pending >= n then begin
    let s = String.sub r.pending 0 n in
    r.pending <- String.sub r.pending n (String.length r.pending - n);
    s
  end
  else begin
    refill r;
    read_exact r n
  end

(* ---- Follower: the client ------------------------------------------------ *)

type client = {
  (* the current subscription target — [None] until discovery finds one;
     mutated only from the client thread (and pre-start) *)
  mutable primary : (string * int) option;
  durability : Durability.t;
  my_epoch : unit -> int;  (* this node's durable fencing epoch *)
  (* [on_epoch primary e]: the stream reported the primary's fencing
     epoch. Returns [false] when that primary is stale (its epoch is
     below ours) — the connection is abandoned and discovery runs. *)
  on_epoch : string * int -> int -> bool;
  (* walk the peer list for the current primary; [None] = nobody found.
     Consulted when there is no target, and after [probe_after_s] of
     silence — never on a healthy stream. *)
  probe : unit -> (string * int) option;
  on_repoint : (string * int) -> unit;  (* the target changed *)
  apply : string -> unit;  (* one replicated journal payload *)
  reset : payloads:string list -> warm:string list -> unit;
      (* resync: full payload list (meta first) + base64 warm records *)
  takeover_after : float option;
  (* the election: a primary to re-point to, or [None] to stop *)
  on_lost : (unit -> (string * int) option) option;
  stop : bool Atomic.t;
  lag : int Atomic.t;
  connected : bool Atomic.t;
  applied : int Atomic.t;
  resyncs : int Atomic.t;
  divergences : int Atomic.t;
  repoints : int Atomic.t;
  prng : Prng.t;  (* reconnect jitter; client thread only *)
  sock_mutex : Mutex.t;
  mutable sock : Unix.file_descr option;
  mutable thread : Thread.t option;
  (* replication cursor: primary's boot id, compaction gen, byte offset *)
  mutable cursor : (string * int * int) option;
  mutable applied_in_gen : int;
  (* last moment a valid primary demonstrably answered — the takeover and
     discovery clock. A stale primary's answers do not refresh it. *)
  mutable last_contact : float;
}

let connect_timeout_s = 1.0
let read_timeout_s = 3.0
let backoff_min_s = 0.05
let backoff_max_s = 1.0

(* silent this long → walk the peers for a (possibly new) primary *)
let probe_after_s = 0.75

exception Reconnect
exception Stale_primary

let connect ~host ~port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO connect_timeout_s;
     Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let request_line ~host ~port c =
  let cursorq =
    match c.cursor with
    | Some (boot, gen, offset) ->
      Printf.sprintf "?boot=%s&gen=%d&from=%d&epoch=%d" boot gen offset
        (c.my_epoch ())
    | None -> Printf.sprintf "?epoch=%d" (c.my_epoch ())
  in
  Printf.sprintf
    "GET /v1/replicate%s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
    cursorq host port

let check_epoch c json =
  let epoch =
    Option.value ~default:0
      (Option.bind (Json.member "epoch" json) Json.to_int)
  in
  match c.primary with
  | Some p -> if not (c.on_epoch p epoch) then raise Stale_primary
  | None -> ()

let handle_message c line =
  match Json.of_string line with
  | Error _ -> raise Reconnect
  | Ok json -> (
    let mem name conv = Option.bind (Json.member name json) conv in
    match mem "repl" Json.to_str with
    | Some "resync" -> (
      check_epoch c json;
      match
        ( mem "boot" Json.to_str,
          mem "gen" Json.to_int,
          mem "offset" Json.to_int,
          mem "records" Json.to_int,
          mem "payloads" Json.to_list )
      with
      | Some boot, Some gen, Some offset, Some records, Some payloads ->
        let payloads = List.filter_map Json.to_str payloads in
        let warm =
          match mem "warm" Json.to_list with
          | Some ws -> List.filter_map Json.to_str ws
          | None -> []
        in
        c.reset ~payloads ~warm;
        c.cursor <- Some (boot, gen, offset);
        c.applied_in_gen <- records;
        Atomic.set c.lag 0;
        Atomic.incr c.resyncs
      | _ -> raise Reconnect)
    | Some "rec" -> (
      match (mem "o" Json.to_int, mem "p" Json.to_str) with
      | Some o, Some p ->
        (match c.cursor with
        | None -> raise Reconnect (* records before any resync/cursor *)
        | Some (boot, gen, _) ->
          (* [repl.apply.corrupt]: swallow the record but advance the
             cursor — manufactured divergence the digest probe must
             catch. *)
          (try
             Failpoint.hit "repl.apply.corrupt";
             c.apply p
           with Failpoint.Injected _ -> ());
          c.cursor <- Some (boot, gen, o);
          c.applied_in_gen <- c.applied_in_gen + 1;
          Atomic.incr c.applied;
          if Atomic.get c.lag > 0 then Atomic.decr c.lag)
      | _ -> raise Reconnect)
    | Some "hb" -> (
      check_epoch c json;
      match (mem "gen" Json.to_int, mem "records" Json.to_int) with
      | Some gen, Some records -> (
        match c.cursor with
        | Some (_, g, _) when g = gen ->
          Atomic.set c.lag (max 0 (records - c.applied_in_gen));
          (match mem "digest" Json.to_int with
          | Some digest
            when records = c.applied_in_gen
                 && digest <> Durability.digest c.durability ->
            (* We believe we are caught up yet our fold disagrees with
               the primary's: a record was lost or misapplied. Drop the
               cursor and reconnect — the forced resync heals. *)
            Atomic.incr c.divergences;
            c.cursor <- None;
            raise Reconnect
          | _ -> ())
        | _ -> (* stale gen: the stream's resync is coming *) ())
      | _ -> raise Reconnect)
    | _ -> raise Reconnect)

(* One connection: send the request, parse the response head, then
   consume chunks until EOF/timeout/divergence. Every parsed message from
   a valid primary refreshes the takeover clock — merely connecting does
   not, so a live-but-stale primary cannot pin us to it. *)
let run_connection ~host ~port c fd =
  write_all fd (request_line ~host ~port c);
  let r = reader fd in
  let status = read_line r in
  if not (String.length status >= 12 && String.sub status 9 3 = "200") then
    raise Reconnect;
  let rec skip_headers () = if read_line r <> "" then skip_headers () in
  skip_headers ();
  Atomic.set c.connected true;
  let rec chunks () =
    if Atomic.get c.stop then ()
    else
      let size = int_of_string ("0x" ^ read_line r) in
      if size = 0 then ()
      else begin
        let data = read_exact r size in
        ignore (read_exact r 2);
        (* one message per chunk, newline-terminated *)
        String.split_on_char '\n' data
        |> List.iter (fun line ->
               if line <> "" then begin
                 handle_message c line;
                 c.last_contact <- Unix.gettimeofday ()
               end);
        chunks ()
      end
  in
  chunks ()

(* Jittered sleep: 0.5–1.5× the nominal delay, so N followers losing one
   primary never reconnect (or re-probe) in lockstep. *)
let jittered c d = d *. (0.5 +. Prng.float c.prng 1.0)

let set_primary c p =
  if c.primary <> Some p then begin
    c.primary <- Some p;
    (* the cursor names the old primary's journal — resync from the new *)
    c.cursor <- None;
    Atomic.incr c.repoints;
    c.on_repoint p
  end

let client_loop c =
  let backoff = ref backoff_min_s in
  let running = ref true in
  while !running && not (Atomic.get c.stop) do
    (* Discovery: no target yet, or the current one silent past the probe
       threshold — walk the peers; the highest live epoch wins. *)
    (if
       c.primary = None
       || Unix.gettimeofday () -. c.last_contact >= probe_after_s
     then
       match c.probe () with
       | Some p ->
         if c.primary <> Some p then backoff := backoff_min_s;
         set_primary c p
       | None -> ());
    let outcome =
      match c.primary with
      | None -> `Down
      | Some (host, port) -> (
        try
          let fd = connect ~host ~port in
          Mutex.lock c.sock_mutex;
          c.sock <- Some fd;
          Mutex.unlock c.sock_mutex;
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock c.sock_mutex;
              c.sock <- None;
              Mutex.unlock c.sock_mutex;
              Atomic.set c.connected false;
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> run_connection ~host ~port c fd);
          `Ok
        with
        | Stale_primary -> `Stale
        | Reconnect | End_of_file | Unix.Unix_error _ | Sys_error _
        | Failure _ ->
          `Down)
    in
    (match outcome with
    | `Ok ->
      (* clean EOF (primary stopped deliberately) counts as contact *)
      c.last_contact <- Unix.gettimeofday ();
      backoff := backoff_min_s
    | `Stale ->
      (* answered, but superseded: probe immediately on the next spin *)
      c.last_contact <-
        Float.min c.last_contact (Unix.gettimeofday () -. probe_after_s)
    | `Down -> ());
    if not (Atomic.get c.stop) then
      match (c.takeover_after, c.on_lost) with
      | Some after, Some elect
        when Unix.gettimeofday () -. c.last_contact >= after -> (
        (* The election re-points this same client (so the move counts
           under [repoints]) or ends it: promoted, or shutting down. *)
        match elect () with
        | Some p ->
          set_primary c p;
          c.last_contact <- Unix.gettimeofday ();
          backoff := backoff_min_s
        | None -> running := false)
      | _ ->
        Thread.delay (jittered c !backoff);
        backoff := Float.min backoff_max_s (!backoff *. 2.)
  done

let start_client ?primary ~durability ~my_epoch ~on_epoch
    ?(probe = fun () -> None) ?(on_repoint = fun _ -> ()) ~apply ~reset
    ?takeover_after ?on_lost () =
  let c =
    {
      primary;
      durability;
      my_epoch;
      on_epoch;
      probe;
      on_repoint;
      apply;
      reset;
      takeover_after;
      on_lost;
      stop = Atomic.make false;
      lag = Atomic.make 0;
      connected = Atomic.make false;
      applied = Atomic.make 0;
      resyncs = Atomic.make 0;
      divergences = Atomic.make 0;
      repoints = Atomic.make 0;
      prng =
        Prng.of_int
          (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday (), "repl"));
      sock_mutex = Mutex.create ();
      sock = None;
      thread = None;
      cursor = None;
      applied_in_gen = 0;
      last_contact = Unix.gettimeofday ();
    }
  in
  c.thread <- Some (Thread.create client_loop c);
  c

let stop_client ?(join = true) c =
  Atomic.set c.stop true;
  (* Unblock a read parked in RCVTIMEO. *)
  Mutex.lock c.sock_mutex;
  (match c.sock with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
  | None -> ());
  Mutex.unlock c.sock_mutex;
  if join then
    match c.thread with Some t -> Thread.join t | None -> ()

let lag_records c = Atomic.get c.lag
let connected c = Atomic.get c.connected
let applied_records c = Atomic.get c.applied
let resyncs c = Atomic.get c.resyncs
let divergences c = Atomic.get c.divergences
let repoints c = Atomic.get c.repoints
