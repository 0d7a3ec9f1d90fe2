module Failpoint = Xsact_util.Failpoint

type policy = Always | Interval of float | Never

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.1)
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "interval" -> (
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt arg with
      | Some d when d > 0. -> Ok (Interval d)
      | _ -> Error (Printf.sprintf "bad fsync interval %S" arg))
    | _ ->
      Error
        (Printf.sprintf
           "unknown fsync policy %S (want always, interval[:SECONDS], never)"
           s))

let policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval d -> Printf.sprintf "interval:%g" d

let max_payload_bytes = 64 * 1024 * 1024
let default_max_record_bytes = 16 * 1024 * 1024
let header_bytes = 8

let le32 b off v =
  Bytes.set_int32_le b off v

(* ---- Framing ----------------------------------------------------------- *)

let encode_header payload =
  let h = Bytes.create header_bytes in
  le32 h 0 (Int32.of_int (String.length payload));
  le32 h 4 (Crc32.string payload);
  h

let add_record buf payload =
  if String.length payload > max_payload_bytes then
    invalid_arg "Journal.add_record: payload too large";
  Buffer.add_bytes buf (encode_header payload);
  Buffer.add_string buf payload

(* ---- Writing ----------------------------------------------------------- *)

type t = {
  fd : Unix.file_descr;
  policy : policy;
  mutable last_sync : float;
  mutable appends : int;
  mutable bytes_written : int;
  mutable closed : bool;
}

let open_append ?(fsync = Interval 0.1) path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; policy = fsync; last_sync = Unix.gettimeofday (); appends = 0;
    bytes_written = 0; closed = false }

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let do_sync t =
  Failpoint.hit "persist.fsync";
  Unix.fsync t.fd;
  t.last_sync <- Unix.gettimeofday ()

let sync t = match t.policy with Never -> () | _ -> do_sync t

let maybe_sync t =
  match t.policy with
  | Always -> do_sync t
  | Never -> ()
  | Interval d ->
    if Unix.gettimeofday () -. t.last_sync >= d then do_sync t

let append t payload =
  if t.closed then invalid_arg "Journal.append: closed";
  if String.length payload > max_payload_bytes then
    invalid_arg "Journal.append: payload too large";
  Failpoint.hit "persist.append";
  (* Header and payload are two separate writes on purpose: a process
     killed between them leaves exactly the torn tail recovery must cut —
     and the [persist.append.tear] failpoint parks a crash-test victim in
     that window. *)
  write_all t.fd (encode_header payload);
  Failpoint.hit "persist.append.tear";
  write_all t.fd (Bytes.unsafe_of_string payload);
  t.appends <- t.appends + 1;
  t.bytes_written <- t.bytes_written + header_bytes + String.length payload;
  maybe_sync t

let truncate t =
  Unix.ftruncate t.fd 0;
  (match t.policy with Never -> () | _ -> do_sync t)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.policy with Never -> () | Always | Interval _ ->
      try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    Unix.close t.fd
  end

let appends t = t.appends
let bytes_written t = t.bytes_written

(* ---- Reading ----------------------------------------------------------- *)

type frame = Record of string | End | Cut | Torn

(* The one parser of the frame header: the journal's readers, the context
   snapshot and the replication stream all come through here. The length
   is checked against the cap before the payload is allocated, so a
   forged header is refused, never turned into a [Bytes.create]. *)
let input_frame ~max_record_bytes ic =
  let hdr = Bytes.create header_bytes in
  let rec fill got =
    if got = header_bytes then got
    else
      match input ic hdr got (header_bytes - got) with
      | 0 -> got
      | n -> fill (got + n)
  in
  match fill 0 with
  | 0 -> End
  | got when got < header_bytes -> Cut
  | _ -> (
    let n = Int32.to_int (Bytes.get_int32_le hdr 0) in
    if n < 0 || n > max_record_bytes then Torn
    else
      match really_input_string ic n with
      | exception End_of_file -> Cut
      | payload ->
        if Crc32.string payload = Bytes.get_int32_le hdr 4 then Record payload
        else Torn)

type read_result = {
  payloads : string list;
  truncated_records : int;
  truncated_bytes : int;
}

(* Truncate [path] to its good prefix. Uses a fresh descriptor: the append
   handle (if any) is opened after recovery, and O_APPEND writes are
   position-independent anyway. *)
let truncate_file path keep =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd keep;
      Unix.fsync fd)

(* Frames from the channel's position until the first that is not an
   intact record: the records in reverse, the offset just past the last
   of them, and what stopped the walk. *)
let scan ~max_record_bytes ic =
  let rec go acc =
    let pos = pos_in ic in
    match input_frame ~max_record_bytes ic with
    | Record p -> go (p :: acc)
    | stop -> (acc, pos, stop)
  in
  go []

let read ?(repair = true) ?(max_record_bytes = default_max_record_bytes) path =
  match open_in_bin path with
  | exception Sys_error _ ->
    { payloads = []; truncated_records = 0; truncated_bytes = 0 }
  | ic ->
    let acc, good, len =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc, good, _ = scan ~max_record_bytes ic in
          (acc, good, in_channel_length ic))
    in
    (* a cut or torn record is the torn tail *)
    let torn = len - good in
    if torn > 0 && repair then truncate_file path good;
    {
      payloads = List.rev acc;
      truncated_records = (if torn > 0 then 1 else 0);
      truncated_bytes = torn;
    }

(* ---- Tailing ----------------------------------------------------------- *)

type tail_result = {
  records : string list;
  next_offset : int;
  torn : bool;
}

(* Offset-addressed streaming read for replication. Unlike {!read} this
   never repairs. A record cut off by the end of the file is merely
   {e incomplete} (the writer may be mid-append; retry later from
   [next_offset]); a bad length or checksum is [torn]. *)
let read_from ?(max_record_bytes = default_max_record_bytes) ~offset path =
  if offset < 0 then invalid_arg "Journal.read_from: negative offset";
  match open_in_bin path with
  | exception Sys_error _ -> { records = []; next_offset = offset; torn = false }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic offset;
        let acc, stop, why = scan ~max_record_bytes ic in
        { records = List.rev acc; next_offset = stop; torn = (why = Torn) })
