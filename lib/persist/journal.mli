(** Append-only journal of length-prefixed, CRC-checksummed records.

    The on-disk unit of durability. Each record is framed as

    {v
      +----------------+----------------+=================+
      | length (u32 LE)| CRC-32 (u32 LE)| payload bytes   |
      +----------------+----------------+=================+
    v}

    where the CRC covers the payload only. Payloads are opaque byte
    strings — op encoding belongs to the caller (the serve layer journals
    JSON session ops). A write that dies partway — process killed between
    the header and payload writes, disk full, machine off — leaves a
    {e torn tail}: {!read} detects it at the first record whose header is
    short, whose length is implausible, whose payload is cut off, or
    whose checksum disagrees, returns every record before it, and (by
    default) repairs the file by truncating the tail away, so a second
    read of the same file is byte-identical and reports nothing torn.

    Durability is policy-driven: [Always] fsyncs after every append (an
    acknowledged op survives even an OS crash), [Interval s] fsyncs at
    most every [s] seconds (bounded loss on OS crash, near-zero overhead;
    a process-only crash — the common case — loses nothing either way,
    the page cache survives), [Never] leaves flushing to the OS.

    Failpoints (test-only, {!Xsact_util.Failpoint}): [persist.append] at
    append entry, [persist.append.tear] between the header and payload
    writes (park a victim process there and [kill -9] it to manufacture a
    torn record), [persist.fsync] before each fsync. *)

type policy = Always | Interval of float | Never

val policy_of_string : string -> (policy, string) result
(** ["always"], ["never"], ["interval"] (default 0.1 s) or
    ["interval:SECONDS"]. *)

val policy_to_string : policy -> string

(** {1 Writing} *)

type t

val open_append : ?fsync:policy -> string -> t
(** Open (creating if absent) for appending. Default policy
    [Interval 0.1]. @raise Unix.Unix_error on I/O failure. *)

val append : t -> string -> unit
(** Write one record and apply the fsync policy. The record is durable
    against process death once [append] returns; durable against OS death
    per the policy. @raise Invalid_argument beyond {!max_payload_bytes}. *)

val sync : t -> unit
(** Explicit fsync barrier, regardless of policy (no-op under [Never]). *)

val truncate : t -> unit
(** Drop every record (compaction has folded them into a snapshot). *)

val close : t -> unit

val appends : t -> int
(** Records appended through this handle. *)

val bytes_written : t -> int
(** Bytes (headers + payloads) appended through this handle. *)

(** {1 Reading} *)

type frame =
  | Record of string  (** an intact record's payload *)
  | End  (** the input ended before a header's first byte *)
  | Cut  (** the input ended inside a header or a payload *)
  | Torn  (** a length over the cap, or a checksum that disagrees *)

val input_frame : max_record_bytes:int -> in_channel -> frame
(** Read one frame: the one parser of the frame header, shared by the
    journal's reads and the replication stream. A length
    over [max_record_bytes] is [Torn] before the payload is allocated.
    After [Cut] or [Torn] framing is lost. *)

type read_result = {
  payloads : string list;  (** good records, in append order *)
  truncated_records : int;  (** 0, or 1 when a torn tail was cut *)
  truncated_bytes : int;  (** bytes dropped with the torn tail *)
}

val read : ?repair:bool -> ?max_record_bytes:int -> string -> read_result
(** Read every intact record. A missing file is an empty journal. With
    [repair] (the default) a torn tail is also truncated off the file on
    disk, making recovery idempotent. Framing is lost at the first bad
    record, so everything after it is part of the tail and
    [truncated_records] is at most 1 per file. A length header beyond
    [max_record_bytes] (default {!default_max_record_bytes}) is treated
    as part of the torn tail — never as an allocation request. *)

type tail_result = {
  records : string list;  (** good records from [offset], in order *)
  next_offset : int;  (** byte offset just past the last good record *)
  torn : bool;
      (** a complete record failed its checksum or claimed an implausible
          length — as opposed to a clean or merely-incomplete tail *)
}

val read_from : ?max_record_bytes:int -> offset:int -> string -> tail_result
(** Offset-addressed streaming read: parse intact records starting at byte
    [offset] with {!input_frame}, stopping at EOF, at an incomplete
    record (a concurrent writer may be mid-append — poll again from
    [next_offset]), or at a corrupt one ([torn = true]). The length header
    is checked against [max_record_bytes] (default
    {!default_max_record_bytes}) {e before} the payload is allocated.
    Never repairs the file. A missing file reads as empty. This is the
    replication tailer: a follower's cursor is exactly [next_offset].
    @raise Invalid_argument on a negative [offset]. *)

(** {1 Framing} *)

val max_payload_bytes : int
(** Sanity bound (64 MiB) — a parsed length beyond it marks a torn tail. *)

val default_max_record_bytes : int
(** Default read-side record-size cap (16 MiB). The write side refuses
    payloads over {!max_payload_bytes}; the read side is stricter because
    a corrupt length prefix must never become an allocation attempt. *)

val encode_header : string -> bytes
(** The header (length, CRC-32) that frames a payload. *)

val add_record : Buffer.t -> string -> unit
(** Append one framed record to a buffer — snapshots reuse the journal's
    record framing. *)

val header_bytes : int
(** Size of the per-record header (length + CRC). A record of payload [p]
    occupies [header_bytes + String.length p] bytes on disk — how the
    replication stream advances a follower's byte cursor without
    re-reading the file. *)
