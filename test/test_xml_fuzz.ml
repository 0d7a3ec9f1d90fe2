(* Fuzz smoke for the parsers that read untrusted bytes. The xmlkit
   parsers: seeded random bytes, markup-shaped noise, and mutations of
   valid documents are driven through both [Xml_parse.parse_string] (the
   DOM) and [Xml_sax.fold] (the event stream). Every input must come back
   as [Ok] or a located [Error] — never an escaping exception, never a
   hang. The same discipline covers the JSON codec every request, journal
   record and replication message goes through (an accepted value must
   also print back to itself), and the frame reader under the journal
   and the replication stream (a damaged journal
   must read back as exactly its intact prefix), and the HTTP request
   reader the daemon runs on every connection (its line, header and body
   bounds hold, and an accepted request writes back to itself). The
   corpus is
   deterministic (seeded {!Xsact_util.Prng}), so a failure reproduces
   bit-for-bit; [XSACT_FUZZ_ITERS] scales the budget (CI runs a bigger
   one than the default). *)

module Prng = Xsact_util.Prng
module Json = Xsact_server.Json
module Journal = Xsact_persist.Journal
module Http = Xsact_server.Http

let iters =
  match Sys.getenv_opt "XSACT_FUZZ_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

(* Per-input latency bound: a parser that is merely slow on 400-byte
   garbage is a bug worth failing on, long before the harness timeout. *)
let max_seconds_per_input = 5.0

let check = Alcotest.check

(* ---- Input generators ------------------------------------------------------ *)

(* arbitrary bytes, nuls and high bytes included *)
let gen_raw prng =
  let len = Prng.int_in prng 0 400 in
  String.init len (fun _ -> Char.chr (Prng.int_in prng 0 255))

(* markup-shaped noise: heavy in the bytes the tokenizer branches on *)
let markup_alphabet = "<>/=\"'&;!?[]-# \n\tabcdexmlCDATA0123456789"

let gen_markupish prng =
  let len = Prng.int_in prng 0 400 in
  String.init len (fun _ ->
      markup_alphabet.[Prng.int_in prng 0 (String.length markup_alphabet - 1)])

(* valid seeds for the mutation generator — each exercises a different
   construct (attributes, CDATA, comments, PIs, entities, nesting) *)
let seeds =
  [|
    {|<?xml version="1.0"?><catalog><item id="1" price="9.99">GPS &amp; maps</item><item id="2"/></catalog>|};
    {|<a><b c="d &lt;e&gt;"><![CDATA[raw <bytes> &amp; stuff]]></b><!-- note --><?pi data?></a>|};
    {|<r>&#65;&#x42; text &quot;quoted&quot; &apos;tick&apos;</r>|};
    {|<deep><deep><deep><deep><deep>leaf</deep></deep></deep></deep></deep>|};
    "<s>\n  <t>  spaced  </t>\n  <u/>\n</s>";
  |]

let mutate ?(pool = seeds) prng src =
  let b = Buffer.create (String.length src + 16) in
  Buffer.add_string b src;
  let s = Bytes.of_string (Buffer.contents b) in
  let n = Bytes.length s in
  if n = 0 then " "
  else begin
    let out = ref (Bytes.to_string s) in
    let rounds = Prng.int_in prng 1 4 in
    for _ = 1 to rounds do
      let cur = !out in
      let n = String.length cur in
      if n > 0 then
        match Prng.int_in prng 0 4 with
        | 0 ->
          (* flip one byte *)
          let i = Prng.int_in prng 0 (n - 1) in
          let by = Bytes.of_string cur in
          Bytes.set by i (Char.chr (Prng.int_in prng 0 255));
          out := Bytes.to_string by
        | 1 ->
          (* delete a span *)
          let i = Prng.int_in prng 0 (n - 1) in
          let len = min (n - i) (Prng.int_in prng 1 8) in
          out := String.sub cur 0 i ^ String.sub cur (i + len) (n - i - len)
        | 2 ->
          (* insert random bytes *)
          let i = Prng.int_in prng 0 n in
          let ins =
            String.init (Prng.int_in prng 1 6) (fun _ ->
                Char.chr (Prng.int_in prng 0 255))
          in
          out := String.sub cur 0 i ^ ins ^ String.sub cur i (n - i)
        | 3 ->
          (* truncate *)
          out := String.sub cur 0 (Prng.int_in prng 0 (n - 1))
        | _ ->
          (* splice a chunk of another seed in *)
          let other = pool.(Prng.int_in prng 0 (Array.length pool - 1)) in
          let m = String.length other in
          let oi = Prng.int_in prng 0 (m - 1) in
          let olen = min (m - oi) (Prng.int_in prng 1 20) in
          let i = Prng.int_in prng 0 n in
          out :=
            String.sub cur 0 i ^ String.sub other oi olen
            ^ String.sub cur i (n - i)
    done;
    !out
  end

(* ---- The harness ----------------------------------------------------------- *)

(* Run one input through both parsers. The only acceptable outcomes are
   [Ok] and a located [Error]; and because the DOM is built over the SAX
   scan, a DOM [Ok] with a SAX [Error] is a layering bug. *)
let drive input =
  let started = Unix.gettimeofday () in
  let dom =
    match Xml_parse.parse_string input with
    | Ok _ -> true
    | Error _ -> false
    | exception e ->
      Alcotest.failf "parse_string raised %s on %S" (Printexc.to_string e)
        input
  in
  let sax =
    match
      Xml_sax.fold input ~init:0 ~f:(fun n (_ : Xml_sax.event) -> n + 1)
    with
    | Ok _ -> true
    | Error _ -> false
    | exception e ->
      Alcotest.failf "Xml_sax.fold raised %s on %S" (Printexc.to_string e)
        input
  in
  if dom && not sax then
    Alcotest.failf "DOM accepted what SAX rejected: %S" input;
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > max_seconds_per_input then
    Alcotest.failf "parsing %d bytes took %.1fs (input %S...)"
      (String.length input) elapsed
      (String.sub input 0 (min 40 (String.length input)))

let test_fixed_nasties () =
  List.iter drive
    [
      "";
      "<";
      ">";
      "<a";
      "<a>";
      "<a></b>";
      "<a/><b/>";
      "<a b=></a>";
      "<a b='1' b='2'/>";
      "<!DOCTYPE";
      "<!DOCTYPE foo [ <!ENTITY x \"y\"> ]><a>&x;</a>";
      "<?";
      "<?xml?>";
      "<?xml version=\"1.0\"";
      "<![CDATA[";
      "<a><![CDATA[never closed</a>";
      "]]>";
      "<a>]]></a>";
      "&amp;";
      "<a>&unknown;</a>";
      "<a>&#xFFFFFFFFFFFFFF;</a>";
      "<a>&#0;</a>";
      "<a>&#;</a>";
      "<!---->";
      "<a><!-- -- --></a>";
      "<a\x00b/>";
      "\xff\xfe<a/>";
      "<a " ^ String.make 300 'x' ^ "='y'/>";
      "<a>" ^ String.make 3000 '&' ^ "</a>";
    ];
  (* nesting past max_depth is a located error, not a stack overflow *)
  let deep = Buffer.create 65536 in
  for _ = 1 to 5000 do
    Buffer.add_string deep "<d>"
  done;
  Buffer.add_string deep "x";
  for _ = 1 to 5000 do
    Buffer.add_string deep "</d>"
  done;
  (match Xml_parse.parse_string (Buffer.contents deep) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "5000-deep nesting parsed past max_depth"
  | exception e ->
    Alcotest.failf "deep nesting raised %s" (Printexc.to_string e));
  (* ...and a raised max_depth really does admit deeper documents *)
  match Xml_parse.parse_string ~max_depth:6000 (Buffer.contents deep) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep parse at max_depth=6000: %s"
                 (Xml_parse.error_to_string e)
  | exception e ->
    Alcotest.failf "deep parse raised %s" (Printexc.to_string e)

let test_seeds_parse () =
  (* the mutation seeds themselves must be valid, or the mutator is
     fuzzing nothing *)
  Array.iter
    (fun s ->
      match Xml_parse.parse_string s with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "seed %S rejected: %s" s (Xml_parse.error_to_string e))
    seeds

let test_fuzz_raw () =
  let prng = Prng.of_int 0xda7a in
  for _ = 1 to iters do
    drive (gen_raw prng)
  done

let test_fuzz_markupish () =
  let prng = Prng.of_int 0x3a91 in
  for _ = 1 to iters do
    drive (gen_markupish prng)
  done

let test_fuzz_mutations () =
  let prng = Prng.of_int 0xbeef in
  for _ = 1 to iters do
    let seed = seeds.(Prng.int_in prng 0 (Array.length seeds - 1)) in
    drive (mutate prng seed)
  done;
  (* sanity: a run of unmutated seeds through the same driver *)
  Array.iter drive seeds;
  check Alcotest.bool "budget consumed" true (iters > 0)

(* ---- JSON ------------------------------------------------------------------ *)

(* JSON-shaped noise: heavy in the bytes the parser branches on *)
let json_alphabet = "{}[]:,\"\\ \n\t0123456789.-+eEtrufalsn/bu"

let gen_jsonish prng =
  let len = Prng.int_in prng 0 400 in
  String.init len (fun _ ->
      json_alphabet.[Prng.int_in prng 0 (String.length json_alphabet - 1)])

(* demo /compare bodies and journal payloads, the two shapes the parser
   reads most *)
let json_seeds =
  [|
    {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":6}|};
    {|{"dataset":"imdb","q":"thriller heist","select":[1,2,5,8],"size_bound":8,"algorithm":"single-swap","threshold_pct":12.5,"measure":"rate","weights":{"genre":2,"year":0}}|};
    {|{"dataset":"outdoor-retailer","q":"tent","top":16,"size_bound":12,"algorithm":"multi-swap"}|};
    {|{"meta":1,"next":42}|};
    {|{"op":"create","id":"s7","t":1723456789.25,"entry":{"dataset":"product-reviews","request":{"dataset":"product-reviews","q":"gps","top":3},"ranks":[1,2,3],"size_bound":6}}|};
    {|{"op":"delete","id":"s7"}|};
    {|{"id":"s1","t":1.5e9,"entry":{"q":"caf\u00e9 \"quoted\"\n","ranks":[],"size_bound":-0}}|};
  |]

(* Parse one input: [Ok] or [Error], never an exception, and an accepted
   value prints to text that parses back to the same value. *)
let drive_json input =
  let started = Unix.gettimeofday () in
  (match Json.of_string input with
  | Error _ -> ()
  | Ok v -> (
    let printed = Json.to_string v in
    match Json.of_string printed with
    | Ok v' when v' = v -> ()
    | Ok _ -> Alcotest.failf "%S printed as %S, which reads back changed" input printed
    | Error e -> Alcotest.failf "%S printed as %S, which is refused: %s" input printed e)
  | exception e ->
    Alcotest.failf "Json.of_string raised %s on %S" (Printexc.to_string e) input);
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > max_seconds_per_input then
    Alcotest.failf "parsing %d bytes of JSON took %.1fs" (String.length input)
      elapsed

let test_json_seeds () =
  Array.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> drive_json s
      | Error e -> Alcotest.failf "seed %S rejected: %s" s e)
    json_seeds;
  List.iter drive_json
    [ "1e400"; "-1e400"; "1e-400"; "12345678901234567890"; "-0.0"; "[-0]";
      "\"\\ud800\""; "\"\\u0000\""; String.make 600 '['; "{\"\":{}}" ]

let test_json_raw () =
  let prng = Prng.of_int 0xda7a in
  for _ = 1 to iters do
    drive_json (gen_raw prng)
  done

let test_json_noise () =
  let prng = Prng.of_int 0x3a91 in
  for _ = 1 to iters do
    drive_json (gen_jsonish prng)
  done

let test_json_mutations () =
  let prng = Prng.of_int 0xbeef in
  for _ = 1 to iters do
    let seed = json_seeds.(Prng.int_in prng 0 (Array.length json_seeds - 1)) in
    drive_json (mutate ~pool:json_seeds prng seed)
  done

(* ---- Journal frames -------------------------------------------------------- *)

(* Run [f] on a journal file holding [data]. Each input gets a new file,
   removed afterwards: rewriting one file in place would make ext4 flush
   it to disk at every close. *)
let with_journal =
  let counter = ref 0 in
  fun data f ->
    incr counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xsact_fuzz_journal_%d_%d" (Unix.getpid ()) !counter)
    in
    let oc = open_out_bin path in
    output_string oc data;
    close_out oc;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A journal of a few binary payloads (NUL, newline and high bytes
   included), damaged once at a random place: cut off, one bit flipped,
   or one record's length forged. Returns the file's bytes and how many
   records lie wholly before the damage. *)
let gen_damaged_journal prng =
  let payloads =
    List.init (Prng.int_in prng 1 8) (fun _ ->
        String.init (Prng.int_in prng 0 120) (fun _ ->
            Char.chr (Prng.int_in prng 0 255)))
  in
  let buf = Buffer.create 1024 in
  (* [ends.(k)] is the offset just past record [k] *)
  let ends =
    Array.of_list
      (List.map
         (fun p ->
           Journal.add_record buf p;
           Buffer.length buf)
         payloads)
  in
  let data = Bytes.of_string (Buffer.contents buf) in
  let len = Bytes.length data in
  let intact_before off =
    Array.fold_left (fun n e -> if e <= off then n + 1 else n) 0 ends
  in
  let damaged, intact =
    match Prng.int_in prng 0 2 with
    | 0 ->
      let cut = Prng.int_in prng 0 len in
      (Bytes.sub_string data 0 cut, intact_before cut)
    | 1 ->
      let i = Prng.int_in prng 0 (len - 1) in
      Bytes.set data i
        (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl Prng.int_in prng 0 7)));
      (* the record holding byte [i] is damaged; every one before it is not *)
      (Bytes.to_string data, intact_before i)
    | _ ->
      let k = Prng.int_in prng 0 (Array.length ends - 1) in
      let start = if k = 0 then 0 else ends.(k - 1) in
      let honest = ends.(k) - start - Journal.header_bytes in
      let forged =
        match Prng.int_in prng 0 3 with
        | 0 -> Journal.default_max_record_bytes + 1
        | 1 -> -1
        | 2 -> honest + Prng.int_in prng 1 64
        | _ -> max 0 (honest - Prng.int_in prng 1 64)
      in
      let forged = if forged = honest then honest + 1 else forged in
      Bytes.set_int32_le data start (Int32.of_int forged);
      (Bytes.to_string data, k)
  in
  (damaged, List.filteri (fun k _ -> k < intact) payloads, if intact = 0 then 0 else ends.(intact - 1))

let drive_frames (data, prefix, prefix_bytes) =
  with_journal data @@ fun journal_path ->
  let started = Unix.gettimeofday () in
  (match Journal.read ~repair:false journal_path with
  | r ->
    if r.Journal.payloads <> prefix then
      Alcotest.failf "read: %d records, expected the %d intact (%S)"
        (List.length r.Journal.payloads) (List.length prefix) data;
    check Alcotest.int "read: torn bytes"
      (String.length data - prefix_bytes) r.Journal.truncated_bytes
  | exception e ->
    Alcotest.failf "Journal.read raised %s on %S" (Printexc.to_string e) data);
  (match Journal.read_from ~offset:0 journal_path with
  | r ->
    if r.Journal.records <> prefix then
      Alcotest.failf "read_from: %d records, expected the %d intact (%S)"
        (List.length r.Journal.records) (List.length prefix) data;
    check Alcotest.int "read_from: cursor" prefix_bytes r.Journal.next_offset
  | exception e ->
    Alcotest.failf "Journal.read_from raised %s on %S" (Printexc.to_string e)
      data);
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > max_seconds_per_input then
    Alcotest.failf "reading %d journal bytes took %.1fs" (String.length data)
      elapsed

let test_frames_damaged () =
  let prng = Prng.of_int 0xf4a3 in
  for _ = 1 to iters do
    drive_frames (gen_damaged_journal prng)
  done

(* Random bytes: both readers agree on what they hold, and neither
   raises. *)
let test_frames_raw () =
  let prng = Prng.of_int 0xda7a in
  for _ = 1 to iters do
    let data = gen_raw prng in
    with_journal data @@ fun path ->
    match
      (Journal.read ~repair:false path, Journal.read_from ~offset:0 path)
    with
    | r, t ->
      if r.Journal.payloads <> t.Journal.records then
        Alcotest.failf "read and read_from disagree on %S" data
    | exception e ->
      Alcotest.failf "journal read raised %s on %S" (Printexc.to_string e) data
  done

(* ---- HTTP requests -------------------------------------------------------- *)

(* The reader works on a channel, so each input goes through a pipe. The
   inputs stay below a pipe's buffer, so writing them all before reading
   never blocks. *)
let pipe_capacity = 65536

let with_bytes data f =
  if String.length data >= pipe_capacity then invalid_arg "with_bytes: input too long";
  let r, w = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr w in
  Out_channel.output_string oc data;
  Out_channel.close oc;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> f ic)

let wire_of write =
  let r, w = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr w in
  write oc;
  Out_channel.close oc;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> In_channel.input_all ic)

(* demo /compare requests as the client writes them, plus the other
   verbs and shapes the daemon serves *)
let http_seeds =
  Array.append
    (Array.map
       (fun body ->
         wire_of (fun oc ->
             Http.send_request oc ~host:"127.0.0.1:8080" ~body "/compare"))
       json_seeds)
    [|
      wire_of (fun oc ->
          Http.send_request oc ~host:"h" "/search?dataset=imdb&q=heist%20movie&limit=3");
      wire_of (fun oc -> Http.send_request oc ~host:"h" ~meth:"DELETE" "/session/s7");
      "GET /health HTTP/1.0\r\nConnection: close\r\nX-A:  spaced  \r\n\r\n";
      "PATCH /session/s1 HTTP/1.1\nContent-Length: 2\n\n{}GET / HTTP/1.1\r\n\r\n";
    |]

(* request-shaped noise: a request line, header lines and a body, each
   strung together at random from the tokens the reader branches on *)
let gen_httpish prng =
  let pick a = a.(Prng.int_in prng 0 (Array.length a - 1)) in
  let some n a = String.concat "" (List.init (Prng.int_in prng 0 n) (fun _ -> pick a)) in
  let eol = [| "\r\n"; "\r\n"; "\n"; "\r"; "" |] in
  let target = [| "/"; "compare"; "/session/s1"; "?q=gps"; "&top=3"; "%2"; "%41"; "+"; " "; "x" |] in
  let header =
    [| "Content-Length: "; "content-length:"; "0"; "3"; "12"; "-1"; "99999999999";
       " "; "Host: h"; "Connection: close"; ":"; "x"; "\t" |]
  in
  let line =
    pick [| "GET"; "POST"; "DELETE"; "patch"; ""; "G T" |]
    ^ pick [| " "; " "; ""; "  " |]
    ^ some 4 target
    ^ pick [| " HTTP/1.1"; " HTTP/1.1"; " HTTP/1.0"; " HTTP/2"; "" |]
    ^ pick eol
  in
  let headers =
    String.concat "" (List.init (Prng.int_in prng 0 5) (fun _ -> some 4 header ^ pick eol))
  in
  line ^ headers ^ pick eol ^ some 6 [| "{}"; "abc"; "\r\n"; "GET / HTTP/1.1\r\n\r\n" |]

let http_max_seconds = max_seconds_per_input

(* Read requests off [input] until the stream ends or is refused: every
   call returns [Ok] or [Error], never raises; no accepted request holds
   a line, a header count or a body past the protocol bounds; and every
   accepted request, written back with [send_request], reads back with
   the same method, target, path, query and body. *)
let drive_http input =
  let started = Unix.gettimeofday () in
  let accepted =
    with_bytes input (fun ic ->
        let rec loop acc =
          match Http.read_request ic with
          | Ok r -> loop (r :: acc)
          | Error (`Eof | `Bad _ | `Refuse _) -> List.rev acc
          | exception e ->
            Alcotest.failf "read_request raised %s on %S" (Printexc.to_string e)
              input
        in
        loop [])
  in
  List.iter
    (fun (r : Http.request) ->
      let line = String.length r.meth + String.length r.target + 10 in
      if line > Http.max_header_line_bytes then
        Alcotest.failf "request line of %d bytes accepted" line;
      if List.length r.headers > Http.max_headers then
        Alcotest.failf "%d headers accepted" (List.length r.headers);
      List.iter
        (fun (name, value) ->
          if String.length name + String.length value + 1 > Http.max_header_line_bytes
          then Alcotest.failf "header line of %d bytes accepted" (String.length value))
        r.headers;
      if String.length r.body > Http.max_body_bytes then
        Alcotest.failf "body of %d bytes accepted" (String.length r.body);
      let again =
        with_bytes
          (wire_of (fun oc ->
               Http.send_request oc ~host:"h" ~meth:r.meth
                 ?body:(if r.body = "" then None else Some r.body)
                 r.target))
          Http.read_request
      in
      match again with
      | Ok r'
        when r'.Http.meth = r.meth && r'.target = r.target && r'.path = r.path
             && r'.query = r.query && r'.body = r.body ->
        ()
      | Ok _ -> Alcotest.failf "%S read back changed" input
      | Error _ -> Alcotest.failf "%S did not read back" input)
    accepted;
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > http_max_seconds then
    Alcotest.failf "reading %d bytes of HTTP took %.1fs" (String.length input)
      elapsed

let test_http_seeds_and_bounds () =
  Array.iter
    (fun s ->
      match with_bytes s Http.read_request with
      | Ok _ -> drive_http s
      | Error _ -> Alcotest.failf "seed %S refused" s)
    http_seeds;
  let refused input =
    match with_bytes input Http.read_request with
    | Error (`Refuse (status, _)) -> status
    | Ok _ -> Alcotest.failf "accepted %d bytes past a bound" (String.length input)
    | Error _ -> Alcotest.failf "malformed, not refused: %d bytes" (String.length input)
  in
  let long n = String.make n 'a' in
  let header_of_len n = "X: " ^ long (n - 3) in
  check Alcotest.int "request line past 8 KiB" 431
    (refused ("GET /" ^ long Http.max_header_line_bytes ^ " HTTP/1.1\r\n\r\n"));
  check Alcotest.int "header line past 8 KiB" 431
    (refused
       ("GET / HTTP/1.1\r\n" ^ header_of_len (Http.max_header_line_bytes + 1) ^ "\r\n\r\n"));
  check Alcotest.int "one header too many" 431
    (refused
       ("GET / HTTP/1.1\r\n"
       ^ String.concat "" (List.init (Http.max_headers + 1) (fun i -> Printf.sprintf "X%d: v\r\n" i))
       ^ "\r\n"));
  check Alcotest.int "content-length past the bound" 413
    (refused
       (Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
          (Http.max_body_bytes + 1)));
  (* the largest accepted shapes, exactly at each bound *)
  List.iter drive_http
    [
      "GET / HTTP/1.1\r\n" ^ header_of_len Http.max_header_line_bytes ^ "\r\n\r\n";
      "GET / HTTP/1.1\r\n"
      ^ String.concat "" (List.init Http.max_headers (fun i -> Printf.sprintf "X%d: v\r\n" i))
      ^ "\r\n";
    ]

let test_http_raw () =
  let prng = Prng.of_int 0x4777 in
  for _ = 1 to iters do
    drive_http (gen_raw prng)
  done

let test_http_noise () =
  let prng = Prng.of_int 0x9e77 in
  for _ = 1 to iters do
    drive_http (gen_httpish prng)
  done

(* cuts and mutations of real client bytes *)
let test_http_mutations () =
  let prng = Prng.of_int 0x5e9d in
  for _ = 1 to iters do
    let seed = http_seeds.(Prng.int_in prng 0 (Array.length http_seeds - 1)) in
    drive_http
      (if Prng.chance prng 0.3 then
         String.sub seed 0 (Prng.int_in prng 0 (String.length seed))
       else mutate ~pool:http_seeds prng seed)
  done

let () =
  Alcotest.run "xsact_xml_fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "fixed nasties" `Quick test_fixed_nasties;
          Alcotest.test_case "seeds are valid" `Quick test_seeds_parse;
          Alcotest.test_case "raw bytes" `Quick test_fuzz_raw;
          Alcotest.test_case "markup-shaped noise" `Quick test_fuzz_markupish;
          Alcotest.test_case "seed mutations" `Quick test_fuzz_mutations;
        ] );
      ( "json",
        [
          Alcotest.test_case "seeds and edges" `Quick test_json_seeds;
          Alcotest.test_case "raw bytes" `Quick test_json_raw;
          Alcotest.test_case "json-shaped noise" `Quick test_json_noise;
          Alcotest.test_case "seed mutations" `Quick test_json_mutations;
        ] );
      ( "frame",
        [
          Alcotest.test_case "damaged journals" `Quick test_frames_damaged;
          Alcotest.test_case "raw bytes" `Quick test_frames_raw;
        ] );
      ( "http",
        [
          Alcotest.test_case "seeds and bounds" `Quick test_http_seeds_and_bounds;
          Alcotest.test_case "raw bytes" `Quick test_http_raw;
          Alcotest.test_case "request-shaped noise" `Quick test_http_noise;
          Alcotest.test_case "cuts and mutations" `Quick test_http_mutations;
        ] );
    ]
