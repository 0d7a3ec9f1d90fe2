(* The xsact-serve daemon as a child process, and the two ways the bench
   talks to a server: keep-alive HTTP over loopback, or [Server.handle]
   in-process (the traced replay). Both produce a [reply]. *)

type reply = { status : int; headers : (string * string) list; body : string }

let header reply name = List.assoc_opt name reply.headers

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ---- Requests ------------------------------------------------------------ *)

let host = "127.0.0.1"

(* Exactly the request [Http.read_request] parses out of
   [Http.send_request]'s bytes, so the in-process and wire paths see the
   same record. *)
let request_of ~meth ~target ~body : Http.request =
  let path, query = Http.split_target target in
  {
    Http.meth;
    target;
    path;
    query;
    headers =
      [ ("host", host); ("content-length", string_of_int (String.length body)) ];
    body;
  }

let reply_of_response (r : Http.response) =
  {
    status = r.Http.status;
    headers =
      List.map (fun (k, v) -> (String.lowercase_ascii k, v)) r.Http.resp_headers;
    body = r.Http.resp_body;
  }

let handle server ~meth ~target ~body =
  reply_of_response (Server.handle server (request_of ~meth ~target ~body))

let json_of_reply reply =
  match Json.of_string reply.body with
  | Ok j -> j
  | Error e -> failwith ("unparseable response body: " ^ e)

(* ---- Server counters (GET /metrics) ------------------------------------------ *)

type counters = {
  lru_hits : int;
  lru_misses : int;
  ctx_reused : int;
  ctx_built : int;
  intern_evictions : int;
  ctx_bytes_live : int;
  journal_appends : int;
  journal_bytes : int;
  snapshots : int;
}

(* The counters of a /metrics reply, from the daemon or from an in-process
   server; a counter the server does not report (no state directory) is 0. *)
let counters reply =
  let j = json_of_reply reply in
  let int path =
    let rec go j = function
      | [] -> Json.to_int j
      | k :: rest -> Option.bind (Json.member k j) (fun v -> go v rest)
    in
    Option.value ~default:0 (go j path)
  in
  {
    lru_hits = int [ "cache"; "hits" ];
    lru_misses = int [ "cache"; "misses" ];
    ctx_reused = int [ "context_builds_reused" ];
    ctx_built = int [ "context_builds_full" ];
    intern_evictions = int [ "context_intern"; "evictions" ];
    ctx_bytes_live = int [ "context_bytes_live" ];
    journal_appends = int [ "durability"; "journal_appends" ];
    journal_bytes = int [ "durability"; "journal_bytes" ];
    snapshots = int [ "durability"; "snapshots_total" ];
  }

(* ---- Keep-alive connections ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  ic : In_channel.t;
  oc : Out_channel.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let call conn ~meth ~target ~body =
  let body = if body = "" then None else Some body in
  Http.send_request conn.oc ~host ~meth ?body target;
  let status, headers, body = Http.read_response conn.ic in
  { status; headers; body }

(* One request on a fresh connection. *)
let call_once port ~meth ~target ~body =
  let conn = connect port in
  Fun.protect ~finally:(fun () -> close conn) (fun () -> call conn ~meth ~target ~body)

(* ---- The daemon process ----------------------------------------------------- *)

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (* read end of the daemon's stdout, kept open *)
}

(* Daemons still running; [cleanup] kills them at exit, so no run — not
   even a failing one — leaves a process behind. *)
let live : t list ref = ref []

(* After the process has exited. *)
let release t =
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  live := List.filter (fun d -> d.pid <> t.pid) !live

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  release t

let cleanup () = List.iter kill !live

(* SIGTERM and wait for the clean shutdown (the daemon polls its stop flag
   every 0.25 s, then drains, snapshots and exits); SIGKILL after 20 s. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_s () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when now_s () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ -> kill t
    | _ -> release t
  in
  wait ()

let port_of_line line =
  let prefix = "xsact-serve listening on http://127.0.0.1:" in
  let line = String.trim line in
  if String.starts_with ~prefix line then
    let n = String.length prefix in
    int_of_string_opt (String.sub line n (String.length line - n))
  else None

(* Read the daemon's stdout until its "listening on" line, within
   [timeout] seconds. The pipe stays open afterwards: the few lines the
   daemon prints later fit the pipe buffer, and a closed pipe would make
   them fail. *)
let read_port fd ~timeout =
  let deadline = now_s () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    let text = Buffer.contents buf in
    let port =
      match String.rindex_opt text '\n' with
      | Some k ->
        List.find_map port_of_line (String.split_on_char '\n' (String.sub text 0 k))
      | None -> None
    in
    match port with
    | Some p -> p
    | None ->
      let left = deadline -. now_s () in
      if left <= 0. then failwith "daemon: no listening line before the timeout";
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "daemon: exited before listening";
        Buffer.add_subbytes buf chunk 0 n);
      go ()
  in
  go ()

let wait_ready port ~timeout =
  let deadline = now_s () +. timeout in
  let rec poll () =
    let ok =
      match call_once port ~meth:"GET" ~target:"/ready" ~body:"" with
      | r -> r.status = 200
      | exception (Unix.Unix_error _ | Failure _ | Sys_error _ | End_of_file) ->
        false
    in
    if not ok then begin
      if now_s () > deadline then failwith "daemon: not ready before the timeout";
      Unix.sleepf 0.001;
      poll ()
    end
  in
  poll ()

(* Spawn [exe --port 0 args] and wait until GET /ready answers 200.
   Returns the daemon and the spawn-to-ready time in seconds. *)
let spawn ~exe args =
  let args = "--port" :: "0" :: args in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now_s () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let d = { pid; port = 0; out = r } in
  live := d :: !live;
  let port = read_port r ~timeout:60. in
  wait_ready port ~timeout:60.;
  ({ d with port }, now_s () -. t0)

(* The daemon's peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
               float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:Float.nan
