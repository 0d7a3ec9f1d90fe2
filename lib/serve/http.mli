(** Dependency-free HTTP/1.1 — just enough of RFC 9112 for the JSON API.

    Requests are read from a buffered channel (request line, headers, then
    a [Content-Length] body); responses always carry [Content-Length] so
    connections can be kept alive. No chunked transfer, no TLS — the
    daemon fronts a trusted demo/bench workload, not the open internet. *)

type request = {
  meth : string;  (** verb, uppercased: ["GET"], ["POST"], ... *)
  target : string;  (** the raw request target, e.g. ["/search?q=gps"] *)
  path : string list;
      (** decoded, non-empty path segments: ["/session/s1"] is
          [["session"; "s1"]]; ["/"] is [[]] *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  headers : (string * string) list;  (** names lowercased, in order *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val wants_close : request -> bool
(** [Connection: close] requested (HTTP/1.1 defaults to keep-alive). *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;  (** extra headers *)
  resp_body : string;
}

val response : ?headers:(string * string) list -> status:int -> string -> response
(** [response ~status body] with the standard reason phrase.
    [Content-Type: application/json] and [Content-Length] are added at
    write time; [headers] adds extras (e.g. [X-Cache]). *)

val reason_phrase : int -> string

(** {1 Wire functions} *)

val max_body_bytes : int
(** Largest accepted [Content-Length] (8 MiB); larger is refused 413. *)

val max_headers : int
(** Most header lines accepted per request (64); more is refused 431. *)

val max_header_line_bytes : int
(** Longest accepted request/header line (8 KiB). A longer line is
    refused 431 after buffering at most this bound — a client streaming
    megabytes of header never gets them read into memory. *)

val read_request :
  Stdlib.in_channel ->
  (request, [ `Eof | `Bad of string | `Refuse of int * string ]) result
(** Read one request. [`Eof] when the peer closed before a request line
    (normal keep-alive shutdown); [`Bad] (answer 400) on a malformed
    request; [`Refuse (status, msg)] when a well-formed request exceeds a
    protocol bound — 431 past {!max_headers}/{!max_header_line_bytes},
    413 past {!max_body_bytes}. After either error the connection must be
    closed: request framing is lost. *)

val write_response :
  Stdlib.out_channel -> ?keep_alive:bool -> response -> unit
(** Serialize and flush. [keep_alive] (default [true]) picks the
    [Connection] header. *)

(** {1 Pieces exposed for unit tests} *)

val parse_request_line : string -> (string * string, string) result
(** ["GET /x HTTP/1.1"] → [Ok ("GET", "/x")]. *)

val parse_header_line : string -> (string * string, string) result
(** ["Content-Type: text/a"] → [Ok ("content-type", "text/a")]. *)

val split_target : string -> string list * (string * string) list
(** Split a request target into decoded path segments and query params. *)

val url_decode : string -> string
(** Percent- and [+]-decoding (malformed escapes pass through verbatim). *)

(** {1 A minimal client} (tests and benches) *)

val request :
  host:string ->
  port:int ->
  ?meth:string ->
  ?body:string ->
  string ->
  int * (string * string) list * string
(** [request ~host ~port "/path"] opens a connection, sends one request
    ([meth] defaults to ["GET"], or ["POST"] when [body] is given), and
    returns [(status, headers, body)]. @raise Failure on a malformed
    response, [Unix.Unix_error] on connection failure. *)

val with_connection :
  host:string ->
  port:int ->
  ((?meth:string -> ?body:string -> string -> int * (string * string) list * string) -> 'a) ->
  'a
(** Keep-alive variant: [with_connection ~host ~port f] opens one
    connection and passes [f] a function issuing sequential requests on
    it — what the throughput bench uses. *)

val send_request :
  Stdlib.out_channel -> host:string -> ?meth:string -> ?body:string ->
  string -> unit
(** Write one request on an already-connected channel and flush; [meth]
    defaults to ["GET"], or ["POST"] when [body] is given, and an explicit
    [meth] is sent as given. For tests that need to control connection
    lifetime themselves. *)

val read_response_head :
  Stdlib.in_channel -> (int * (string * string) list, string) result
(** Read a response's status line and headers under the bounds
    {!read_request} keeps — at most {!max_header_line_bytes} per line and
    {!max_headers} headers — and leave the body unread: the replication
    follower's view of a streamed response from a peer it does not
    trust to end its lines. *)

val read_response : Stdlib.in_channel -> int * (string * string) list * string
(** Read one response ([(status, headers, body)]).
    @raise Failure on a malformed response. *)
