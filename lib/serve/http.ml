type request = {
  meth : string;
  target : string;
  path : string list;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let max_body_bytes = 8 * 1024 * 1024
let max_headers = 64
let max_header_line_bytes = 8 * 1024

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 422 -> "Unprocessable Content"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Status"

let response ?(headers = []) ~status body =
  { status; reason = reason_phrase status; resp_headers = headers;
    resp_body = body }

(* ---- Decoding ---------------------------------------------------------- *)

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let url_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
        Buffer.add_char buf ' ';
        go (i + 1)
      | '%' when i + 2 < n -> (
        match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ ->
          Buffer.add_char buf '%';
          go (i + 1))
      | c ->
        Buffer.add_char buf c;
        go (i + 1))
    end
  in
  go 0;
  Buffer.contents buf

let split_on_first ch s =
  match String.index_opt s ch with
  | None -> (s, None)
  | Some i ->
    ( String.sub s 0 i,
      Some (String.sub s (i + 1) (String.length s - i - 1)) )

let split_target target =
  let raw_path, raw_query = split_on_first '?' target in
  let path =
    String.split_on_char '/' raw_path
    |> List.filter (fun seg -> seg <> "")
    |> List.map url_decode
  in
  let query =
    match raw_query with
    | None -> []
    | Some q ->
      String.split_on_char '&' q
      |> List.filter (fun kv -> kv <> "")
      |> List.map (fun kv ->
             let k, v = split_on_first '=' kv in
             (url_decode k, url_decode (Option.value v ~default:"")))
  in
  (path, query)

(* ---- Parsing ----------------------------------------------------------- *)

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when meth <> "" && target <> ""
         && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
    Ok (String.uppercase_ascii meth, target)
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Printf.sprintf "malformed header %S" line)
  | Some i ->
    let name = String.lowercase_ascii (String.sub line 0 i) in
    let value =
      String.trim (String.sub line (i + 1) (String.length line - i - 1))
    in
    Ok (name, value)

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let wants_close req =
  match header req "connection" with
  | Some v -> String.lowercase_ascii v = "close"
  | None -> false

(* Read a CRLF- (or bare-LF-) terminated line, without the terminator. *)
let read_line_opt ic =
  match In_channel.input_line ic with
  | None -> None
  | Some line ->
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then Some (String.sub line 0 (n - 1))
    else Some line

(* Like {!read_line_opt}, but stops buffering at [max_header_line_bytes]
   of line, terminator excluded: a client streaming an endless header
   line costs at most one line's bound of memory before it is refused.
   The line accumulates in [buf], which the caller has cleared, one bare
   [char] at a time ([In_channel.input_char]'s [char option] would
   allocate per byte), and leaves it as one string. A line cut by EOF is
   returned as read, CR included. *)
let rec read_line_bounded ic buf =
  match input_char ic with
  | '\n' ->
    let n = Buffer.length buf in
    `Line
      (if n > 0 && Buffer.nth buf (n - 1) = '\r' then Buffer.sub buf 0 (n - 1)
       else Buffer.contents buf)
  | c ->
    (* one byte past the bound is kept only as the CR of a CRLF *)
    let n = Buffer.length buf in
    if n < max_header_line_bytes || (n = max_header_line_bytes && c = '\r')
    then begin
      Buffer.add_char buf c;
      read_line_bounded ic buf
    end
    else `Overflow
  | exception End_of_file ->
    let n = Buffer.length buf in
    if n = 0 then `Eof
    else if n > max_header_line_bytes then `Overflow
    else `Line (Buffer.contents buf)

(* Header lines up to the blank line that ends a head, under the same
   bounds for a request and a response; [buf] is the caller's line
   buffer. *)
let read_headers ic buf =
  let rec go n acc =
    Buffer.clear buf;
    match read_line_bounded ic buf with
    | `Eof -> Error (`Bad "eof in headers")
    | `Overflow ->
      Error
        (`Refuse
          ( 431,
            Printf.sprintf "header line exceeds %d bytes" max_header_line_bytes
          ))
    | `Line "" -> Ok (List.rev acc)
    | `Line _ when n >= max_headers ->
      Error (`Refuse (431, Printf.sprintf "too many headers (max %d)" max_headers))
    | `Line line -> (
      match parse_header_line line with
      | Ok h -> go (n + 1) (h :: acc)
      | Error e -> Error (`Bad e))
  in
  go 0 []

let read_request ic =
  (* one line buffer for the request line and every header line *)
  let buf = Buffer.create 128 in
  match read_line_bounded ic buf with
  | `Eof -> Error `Eof
  | `Overflow -> Error (`Refuse (431, "request line too long"))
  | `Line "" -> Error (`Bad "empty request line")
  | `Line line -> (
    match parse_request_line line with
    | Error e -> Error (`Bad e)
    | Ok (meth, target) -> (
      match read_headers ic buf with
      | Error e -> Error e
      | Ok headers -> (
        let content_length =
          match List.assoc_opt "content-length" headers with
          | None -> Ok 0
          | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 && n <= max_body_bytes -> Ok n
            | Some n when n > max_body_bytes ->
              Error
                (`Refuse
                  ( 413,
                    Printf.sprintf "body of %d bytes exceeds limit %d" n
                      max_body_bytes ))
            | Some _ -> Error (`Bad "content-length out of bounds")
            | None -> Error (`Bad "malformed content-length"))
        in
        match content_length with
        | Error e -> Error e
        | Ok 0 ->
          let path, query = split_target target in
          Ok { meth; target; path; query; headers; body = "" }
        | Ok n -> (
          match really_input_string ic n with
          | body ->
            let path, query = split_target target in
            Ok { meth; target; path; query; headers; body }
          | exception End_of_file -> Error (`Bad "truncated body")))))

(* The head goes out of a small buffer, then the body string itself: the
   channel copies it into its own buffer, outside the OCaml heap, and the
   one flush still writes head and body together. Copying a body over 2
   KiB into a [Buffer] and out again would put it in the major heap twice
   per response (DESIGN.md §8). *)
let write_response oc ?(keep_alive = true) resp =
  let head = Buffer.create 256 in
  let add = Buffer.add_string head in
  add "HTTP/1.1 ";
  add (string_of_int resp.status);
  add " ";
  add resp.reason;
  add "\r\nContent-Type: application/json\r\nContent-Length: ";
  add (string_of_int (String.length resp.resp_body));
  add
    (if keep_alive then "\r\nConnection: keep-alive\r\n"
     else "\r\nConnection: close\r\n");
  List.iter
    (fun (name, value) ->
      add name;
      add ": ";
      add value;
      add "\r\n")
    resp.resp_headers;
  add "\r\n";
  Buffer.output_buffer oc head;
  Out_channel.output_string oc resp.resp_body;
  Out_channel.flush oc

(* ---- Client ------------------------------------------------------------ *)

let read_response ic =
  let fail msg = failwith ("Http.request: " ^ msg) in
  let status =
    match read_line_opt ic with
    | Some line -> (
      match String.split_on_char ' ' line with
      | "HTTP/1.1" :: code :: _ | "HTTP/1.0" :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> s
        | None -> fail ("bad status " ^ line))
      | _ -> fail ("bad status line " ^ line))
    | None -> fail "no response"
  in
  let rec read_headers acc =
    match read_line_opt ic with
    | Some "" -> List.rev acc
    | Some line -> (
      match parse_header_line line with
      | Ok h -> read_headers (h :: acc)
      | Error e -> fail e)
    | None -> fail "eof in headers"
  in
  let headers = read_headers [] in
  let body =
    match List.assoc_opt "content-length" headers with
    | Some v -> (
      let n = int_of_string v in
      match really_input_string ic n with
      | body -> body
      | exception End_of_file -> fail "truncated body")
    | None -> In_channel.input_all ic
  in
  (status, headers, body)

let read_response_head ic =
  let buf = Buffer.create 128 in
  match read_line_bounded ic buf with
  | `Eof | `Overflow -> Error "no status line within the line bound"
  | `Line line -> (
    match String.split_on_char ' ' line with
    | ("HTTP/1.1" | "HTTP/1.0") :: code :: _ when int_of_string_opt code <> None
      -> (
      match read_headers ic buf with
      | Ok headers -> Ok (int_of_string code, headers)
      | Error (`Bad e | `Refuse (_, e)) -> Error e)
    | _ -> Error ("bad status line " ^ line))

let send_request oc ~host ?meth ?body target =
  let meth, body =
    match (meth, body) with
    | Some m, b -> (m, Option.value b ~default:"")
    | None, Some b -> ("POST", b)
    | None, None -> ("GET", "")
  in
  Out_channel.output_string oc
    (Printf.sprintf
       "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s" meth
       target host (String.length body) body);
  Out_channel.flush oc

let with_connection ~host ~port f =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      f (fun ?meth ?body target ->
          send_request oc ~host ?meth ?body target;
          read_response ic))

let request ~host ~port ?meth ?body target =
  with_connection ~host ~port (fun call -> call ?meth ?body target)
