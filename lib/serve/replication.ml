module Journal = Xsact_persist.Journal
module Failpoint = Xsact_util.Failpoint
module Prng = Xsact_util.Prng

(* ---- Wire format --------------------------------------------------------
   After the HTTP head, messages until the connection closes: a kind byte
   ('S' resync header, then its 'P' state payloads; 'R' journal record;
   'H' heartbeat), then one journal frame. The .mli has the fields. Every
   frame is read under [max_frame_bytes], and a resync's payloads under
   [max_resync_bytes] together. *)

let content_type = "application/x-xsact-frames"
let max_frame_bytes = Journal.default_max_record_bytes

(* 1 GiB: the frames of one resync are held until the last arrives, so
   their number needs a bound as well as their size. *)
let max_resync_bytes = 64 * max_frame_bytes

(* The kind byte, the header, then the payload itself, uncopied. *)
let send oc kind payload =
  output_char oc kind;
  output_bytes oc (Journal.encode_header payload);
  output_string oc payload

(* ---- Primary: the stream ------------------------------------------------- *)

let poll_interval_s = 0.045
let heartbeat_interval_s = 0.2

let stream_head =
  "HTTP/1.1 200 OK\r\nContent-Type: " ^ content_type
  ^ "\r\nConnection: close\r\n\r\n"

(* Serve one follower on [oc] until it disconnects or [stopping ()]. The
   caller already consumed the request; this writes the whole response,
   message by message, as journal records are acked. [boot], [gen] and
   [from] are the follower's cursor (absent on a cold connect): when they
   name a live position in our current journal the stream resumes there,
   otherwise it opens with a full resync. *)
let serve_stream ~durability:d ~oc ?boot ?gen ?from ~stopping () =
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
    send oc 'H'
      (Json.to_string
         (Json.Obj
            [
              ("gen", Json.Int (Durability.gen d));
              ("epoch", Json.Int (Durability.fence_epoch d));
              ("records", Json.Int (Durability.since_snapshot d));
              ("digest", Json.Int (Durability.digest d));
            ]));
    flush oc
  in
  let send_resync () =
    let r = Durability.resync d in
    send oc 'S'
      (Json.to_string
         (Json.Obj
            [
              ("boot", Json.String r.Durability.r_boot);
              ("gen", Json.Int r.Durability.r_gen);
              ("epoch", Json.Int (Durability.fence_epoch d));
              ("offset", Json.Int r.Durability.r_offset);
              ("records", Json.Int r.Durability.r_records);
              ("digest", Json.Int r.Durability.r_digest);
              ("payloads", Json.Int (List.length r.Durability.r_payloads));
            ]));
    List.iter (send oc 'P') r.Durability.r_payloads;
    flush oc;
    cursor := Some (r.Durability.r_gen, r.Durability.r_offset);
    last_hb := Unix.gettimeofday ()
  in
  try
    output_string oc stream_head;
    if !cursor = None then send_resync () else send_hb ();
    while not (stopping ()) do
      (match !cursor with
      | None -> send_resync ()
      | Some (g, off) ->
        if Durability.gen d <> g then
          (* Compaction invalidated every offset; hand over fresh state.
             The follower's LWW fold makes the records it already applied
             from the dying generation harmless. *)
          send_resync ()
        else
          let tail = Journal.read_from ~offset:off (Durability.journal_file d) in
          if tail.Journal.torn then send_resync ()
          else begin
            List.iter (send oc 'R') tail.Journal.records;
            flush oc;
            cursor := Some (g, tail.Journal.next_offset);
            if tail.Journal.records = [] then Thread.delay poll_interval_s
          end);
      if Unix.gettimeofday () -. !last_hb >= heartbeat_interval_s then
        send_hb ()
    done
    (* every message is flushed: the caller's close ends the stream *)
  with Unix.Unix_error _ | Sys_error _ -> (* follower gone *) ()

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
  reset : payloads:string list -> unit;
      (* resync: the full payload list, meta first *)
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

let int_field json name = Option.bind (Json.member name json) Json.to_int

let check_epoch c json =
  let epoch = Option.value ~default:0 (int_field json "epoch") in
  match c.primary with
  | Some p -> if not (c.on_epoch p epoch) then raise Stale_primary
  | None -> ()

(* The next frame's payload. Anything but an intact record under the cap
   drops the stream: a clean end is one only at a message boundary. *)
let payload ic =
  match Journal.input_frame ~max_record_bytes:max_frame_bytes ic with
  | Journal.Record p -> p
  | Journal.End | Journal.Cut | Journal.Torn -> raise Reconnect

let json_payload ic =
  match Json.of_string (payload ic) with
  | Ok json -> json
  | Error _ -> raise Reconnect

(* The [n] [P] frames a resync header announced, [bytes] of them read so
   far, kind bytes and headers included: past [max_resync_bytes] the
   stream is dropped. *)
let rec frames ic n ~bytes acc =
  if n = 0 then List.rev acc
  else if input_char ic <> 'P' then raise Reconnect
  else
    let p = payload ic in
    let bytes = bytes + 1 + Journal.header_bytes + String.length p in
    if bytes > max_resync_bytes then raise Reconnect
    else frames ic (n - 1) ~bytes (p :: acc)

let handle_message c ic = function
  | 'S' -> (
    let json = json_payload ic in
    check_epoch c json;
    let int = int_field json in
    match
      ( Option.bind (Json.member "boot" json) Json.to_str,
        int "gen",
        int "offset",
        int "records",
        int "payloads" )
    with
    | Some boot, Some gen, Some offset, Some records, Some np when np >= 0 ->
      c.reset ~payloads:(frames ic np ~bytes:0 []);
      c.cursor <- Some (boot, gen, offset);
      c.applied_in_gen <- records;
      Atomic.set c.lag 0;
      Atomic.incr c.resyncs
    | _ -> raise Reconnect)
  | 'R' -> (
    let p = payload ic in
    match c.cursor with
    | None -> raise Reconnect (* records before any resync/cursor *)
    | Some (boot, gen, off) ->
      (* [repl.apply.corrupt]: swallow the record but advance the cursor —
         manufactured divergence the digest probe must catch. *)
      (try
         Failpoint.hit "repl.apply.corrupt";
         c.apply p
       with Failpoint.Injected _ -> ());
      c.cursor <-
        Some (boot, gen, off + Journal.header_bytes + String.length p);
      c.applied_in_gen <- c.applied_in_gen + 1;
      Atomic.incr c.applied;
      if Atomic.get c.lag > 0 then Atomic.decr c.lag)
  | 'H' -> (
    let json = json_payload ic in
    check_epoch c json;
    let int = int_field json in
    match (int "gen", int "records") with
    | Some gen, Some records -> (
      match c.cursor with
      | Some (_, g, _) when g = gen ->
        Atomic.set c.lag (max 0 (records - c.applied_in_gen));
        (match int "digest" with
        | Some digest
          when records = c.applied_in_gen
               && digest <> Durability.digest c.durability ->
          (* We believe we are caught up yet our fold disagrees with the
             primary's: a record was lost or misapplied. Drop the cursor
             and reconnect — the forced resync heals. *)
          Atomic.incr c.divergences;
          c.cursor <- None;
          raise Reconnect
        | _ -> ())
      | _ -> (* stale gen: the stream's resync is coming *) ())
    | _ -> raise Reconnect)
  | _ -> raise Reconnect

(* One connection: send the request, check the response head, then
   consume messages until EOF/timeout/divergence. Every message from a
   valid primary refreshes the takeover clock — merely connecting does
   not, so a live-but-stale primary cannot pin us to it. [Unix.write]
   sends the whole request or raises; the caller closes [fd]. *)
let run_connection ~host ~port c fd =
  let req = request_line ~host ~port c in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let ic = Unix.in_channel_of_descr fd in
  (match Http.read_response_head ic with
  | Ok (200, headers)
    when List.assoc_opt "content-type" headers = Some content_type ->
    ()
  | Ok _ | Error _ -> raise Reconnect);
  Atomic.set c.connected true;
  let rec messages () =
    if not (Atomic.get c.stop) then
      match input_char ic with
      | exception End_of_file -> () (* a clean end at a message boundary *)
      | kind ->
        handle_message c ic kind;
        c.last_contact <- Unix.gettimeofday ();
        messages ()
  in
  messages ()

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
