(* Tests for the HTTP comparison service: protocol units (request parsing,
   JSON round-trips, routing, LRU eviction), typed-request handling through
   Server.handle without sockets, and an end-to-end socket test with
   concurrent clients exercising the comparison cache. *)

module Http = Xsact_server.Http
module Json = Xsact_server.Json
module Router = Xsact_server.Router
module Lru = Xsact_server.Lru
module Api = Xsact_server.Api
module Server = Xsact_server.Server

let check = Alcotest.check

let request ?(meth = "GET") ?(headers = []) ?(body = "") target =
  let path, query = Http.split_target target in
  { Http.meth; target; path; query; headers; body }

(* ---- HTTP parsing ---------------------------------------------------------- *)

let test_request_line () =
  check
    Alcotest.(result (pair string string) reject)
    "simple"
    (Ok ("GET", "/health"))
    (Http.parse_request_line "GET /health HTTP/1.1");
  check
    Alcotest.(result (pair string string) reject)
    "lowercase verb is uppercased"
    (Ok ("POST", "/compare"))
    (Http.parse_request_line "post /compare HTTP/1.0");
  let bad line =
    match Http.parse_request_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  bad "GET /x HTTP/2";
  bad "GET /x";
  bad "";
  bad "GET  /x HTTP/1.1"

let test_header_line () =
  check
    Alcotest.(result (pair string string) reject)
    "lowercased name, trimmed value"
    (Ok ("content-length", "42"))
    (Http.parse_header_line "Content-Length:  42 ");
  (match Http.parse_header_line "no colon here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted header without colon");
  match Http.parse_header_line ": empty name" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty header name"

let test_split_target () =
  let path, query = Http.split_target "/search?q=gps+golf&lift_to=%2Fa" in
  check Alcotest.(list string) "path" [ "search" ] path;
  check
    Alcotest.(list (pair string string))
    "query decoded"
    [ ("q", "gps golf"); ("lift_to", "/a") ]
    query;
  let path, query = Http.split_target "/session/s1/add" in
  check Alcotest.(list string) "nested path" [ "session"; "s1"; "add" ] path;
  check Alcotest.(list (pair string string)) "no query" [] query;
  let path, _ = Http.split_target "/" in
  check Alcotest.(list string) "root" [] path;
  check Alcotest.string "malformed escape passes through" "100%!"
    (Http.url_decode "100%!")

(* The exact bytes [Http.write_response] puts on the wire. *)
let wire ?keep_alive resp =
  let file = Filename.temp_file "xsact_wire" ".http" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Http.write_response oc ?keep_alive resp);
      In_channel.with_open_bin file In_channel.input_all)

(* Response framing is a wire contract: status line, the three fixed
   headers in order, the extras in order, a blank line, the body. *)
let test_response_bytes () =
  let golden name expected ?keep_alive resp =
    check Alcotest.string name expected (wire ?keep_alive resp)
  in
  let t = Server.create ~datasets:[ "product-reviews" ] () in
  golden "hit"
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 9\r\nConnection: keep-alive\r\nX-Cache: hit\r\n\r\n{\"dod\":7}"
    (Http.response ~headers:[ ("X-Cache", "hit") ] ~status:200 {|{"dod":7}|});
  golden "miss"
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 9\r\nConnection: keep-alive\r\nX-Cache: miss\r\n\r\n{\"dod\":7}"
    (Http.response ~headers:[ ("X-Cache", "miss") ] ~status:200 {|{"dod":7}|});
  golden "two extra headers, in order"
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\nX-Cache: hit\r\nX-Degraded: algorithm\r\n\r\n{}"
    (Http.response
       ~headers:[ ("X-Cache", "hit"); ("X-Degraded", "algorithm") ]
       ~status:200 "{}");
  golden "404 error body"
    "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 52\r\nConnection: keep-alive\r\n\r\n{\"error\":{\"code\":\"not_found\",\"message\":\"not found\"}}"
    (Server.handle t (request "/nope"));
  golden "405 with Allow"
    "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 70\r\nConnection: keep-alive\r\nAllow: GET\r\n\r\n{\"error\":{\"code\":\"method_not_allowed\",\"message\":\"method not allowed\"}}"
    (Server.handle t (request ~meth:"DELETE" "/health"));
  golden "503 with Retry-After"
    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 76\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\n{\"error\":{\"code\":\"overloaded\",\"message\":\"server overloaded; retry shortly\"}}"
    (Http.response
       ~headers:[ ("Retry-After", "1") ]
       ~status:503
       (Api.error_body ~code:"overloaded" "server overloaded; retry shortly"));
  golden "Connection: close" ~keep_alive:false
    "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 63\r\nConnection: close\r\n\r\n{\"error\":{\"code\":\"bad_request\",\"message\":\"empty request line\"}}"
    (Http.response ~status:400
       (Api.error_body ~code:"bad_request" "empty request line"));
  golden "empty body"
    "HTTP/1.1 204 No Content\r\nContent-Type: application/json\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"
    (Http.response ~status:204 "");
  (* a body longer than the channel's buffer arrives whole behind the
     same head *)
  let big = String.make 100_000 'b' in
  golden "100 kB body"
    ("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100000\r\nConnection: keep-alive\r\n\r\n"
    ^ big)
    (Http.response ~status:200 big)

(* ---- JSON ------------------------------------------------------------------ *)

let json : Json.t Alcotest.testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "tom \"quote\" \\slash\n");
        ("count", Json.Int (-42));
        ("score", Json.Float 1.5);
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> check json "roundtrip" v v'
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  check Alcotest.string "deterministic print"
    {|{"b":1,"a":[2,3.5,"x"]}|}
    (Json.to_string
       (Json.Obj
          [
            ("b", Json.Int 1);
            ("a", Json.List [ Json.Int 2; Json.Float 3.5; Json.String "x" ]);
          ]))

let test_json_parse () =
  let ok src v =
    match Json.of_string src with
    | Ok v' -> check json src v v'
    | Error e -> Alcotest.failf "%s: %s" src e
  in
  ok {| {"a": 1, "b": [true, null], "c": "\u0041"} |}
    (Json.Obj
       [
         ("a", Json.Int 1);
         ("b", Json.List [ Json.Bool true; Json.Null ]);
         ("c", Json.String "A");
       ]);
  ok "3.25e2" (Json.Float 325.);
  ok "-7" (Json.Int (-7));
  let bad src =
    match Json.of_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" src
  in
  bad "{\"a\": }";
  bad "[1, 2";
  bad "tru";
  bad "1 2";
  bad "\"raw \x01 control\"";
  bad "";
  ok {|"ok\né\"x"|} (Json.String "ok\n\xc3\xa9\"x");
  ok "\"caf\xc3\xa9\"" (Json.String "caf\xc3\xa9");
  ok "\"a\\nb\\tc\\u00e9d\"" (Json.String "a\nb\tc\xc3\xa9d");
  ok {|["x\"y", "\\", "\/"]|}
    (Json.List [ Json.String "x\"y"; Json.String "\\"; Json.String "/" ]);
  ok "-0" (Json.Int 0);
  ok "12345678901234567890" (Json.Float 12345678901234567890.);
  ok "  [ ]  " (Json.List []);
  (* The journal, replication and /v1 bodies all go through this parser,
     and clients see its messages: one input per error site, with the
     exact message and byte offset. *)
  let error src expected =
    match Json.of_string src with
    | Error e -> check Alcotest.string (Printf.sprintf "error for %S" src) expected e
    | Ok _ -> Alcotest.failf "accepted %S" src
  in
  error {|{"a" 1}|} "byte 5: expected ':', found '1'";
  error {|{"a"|} "byte 4: expected ':', found end";
  error "{\"a\"\x00" "byte 4: expected ':', found '\\000'";
  error {|{1:2}|} "byte 1: expected '\"', found '1'";
  error "{" "byte 1: expected '\"', found end";
  error {|{"a":1,}|} "byte 7: expected '\"', found '}'";
  error "tru" "byte 0: invalid literal (expected true)";
  error "nul" "byte 0: invalid literal (expected null)";
  error "fals" "byte 0: invalid literal (expected false)";
  error {|"\u12"|} "byte 3: truncated \\u escape";
  error {|"\u12G4"|} "byte 5: bad hex digit in \\u escape";
  error {|"abc|} "byte 4: unterminated string";
  error {|"\x"|} "byte 2: bad escape";
  error {|"\|} "byte 2: bad escape";
  error "\"a\x01\"" "byte 2: raw control character in string";
  error "\"\x00\"" "byte 1: raw control character in string";
  error "\"a\\n\x01\"" "byte 4: raw control character in string";
  error "\"a\\n" "byte 4: unterminated string";
  error "-" "byte 1: expected digit";
  error "-x" "byte 1: expected digit";
  error "1." "byte 2: expected digit";
  error "1e" "byte 2: expected digit";
  error "1e+" "byte 3: expected digit";
  error "" "byte 0: unexpected end of input";
  error "   " "byte 3: unexpected end of input";
  error "[1," "byte 3: unexpected end of input";
  error "[" "byte 1: unexpected end of input";
  error "[1 2]" "byte 3: expected ',' or ']'";
  error {|{"a":1 "b":2}|} "byte 7: expected ',' or '}'";
  error "@" "byte 0: unexpected '@'";
  error "\x00" "byte 0: unexpected '\\000'";
  error "[1,]" "byte 3: unexpected ']'";
  error {|{"a":}|} "byte 5: unexpected '}'";
  error "1 2" "byte 2: trailing content";
  error "{}x" "byte 2: trailing content"

(* Nesting is bounded at [Json.max_depth] levels, arrays and objects
   alike: level 512 parses, and the bracket that opens level 513 is the
   error, whatever follows it. *)
let test_json_depth () =
  check Alcotest.int "the bound" 512 Json.max_depth;
  let nest n = String.make n '[' ^ String.make n ']' in
  let rec objs n = if n = 0 then "1" else {|{"k":|} ^ objs (n - 1) ^ "}" in
  List.iter
    (fun (what, src) ->
      match Json.of_string src with
      | Ok v ->
        check Alcotest.bool (what ^ " round-trips") true
          (Json.of_string (Json.to_string v) = Ok v)
      | Error e -> Alcotest.failf "%s refused: %s" what e)
    [ ("512 arrays", nest 512); ("512 objects", objs 512) ];
  let error what src expected =
    match Json.of_string src with
    | Error e -> check Alcotest.string what expected e
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  error "513 arrays" (nest 513) "byte 512: nesting deeper than 512";
  error "513 objects" (objs 513) "byte 2560: nesting deeper than 512";
  error "513 open brackets" (String.make 513 '[')
    "byte 512: nesting deeper than 512";
  error "1 MiB of [" (String.make (1 lsl 20) '[')
    "byte 512: nesting deeper than 512";
  (* a number that overflows a float is refused, not read as infinity,
     which would print as "inf" *)
  error "1e400" "1e400" "byte 0: number out of range";
  error "nested -1e400" "[0,-1e400]" "byte 3: number out of range"

(* ---- Router ---------------------------------------------------------------- *)

let test_router_params () =
  check
    Alcotest.(option (list (pair string string)))
    "binds params"
    (Some [ ("id", "s7") ])
    (Router.match_pattern "session/:id/add" [ "session"; "s7"; "add" ]);
  check
    Alcotest.(option (list (pair string string)))
    "literal mismatch" None
    (Router.match_pattern "session/:id/add" [ "session"; "s7"; "remove" ]);
  check
    Alcotest.(option (list (pair string string)))
    "length mismatch" None
    (Router.match_pattern "session/:id" [ "session" ]);
  check
    Alcotest.(option (list (pair string string)))
    "root pattern" (Some [])
    (Router.match_pattern "" [])

let test_router_dispatch () =
  let handler _req _params = Http.response ~status:200 "{}" in
  let routes =
    [
      Router.route ~meth:"GET" ~pattern:"health" handler;
      Router.route ~meth:"POST" ~pattern:"compare" handler;
      Router.route ~meth:"GET" ~pattern:"session/:id" handler;
      Router.route ~meth:"DELETE" ~pattern:"session/:id" handler;
    ]
  in
  (match Router.dispatch routes (request "/health") with
  | `Matched ("GET /health", _, []) -> ()
  | _ -> Alcotest.fail "GET /health should match");
  (match Router.dispatch routes (request ~meth:"DELETE" "/session/s2") with
  | `Matched ("DELETE /session/:id", _, [ ("id", "s2") ]) -> ()
  | _ -> Alcotest.fail "DELETE /session/s2 should match with params");
  (match Router.dispatch routes (request ~meth:"GET" "/compare") with
  | `Method_not_allowed [ "POST" ] -> ()
  | _ -> Alcotest.fail "GET /compare should be 405 allowing POST");
  match Router.dispatch routes (request "/nope") with
  | `Not_found -> ()
  | _ -> Alcotest.fail "/nope should be 404"

(* ---- LRU ------------------------------------------------------------------- *)

let test_lru_eviction () =
  let lru = Lru.create ~capacity:3 in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "c" 3;
  check Alcotest.(list string) "mru order" [ "c"; "b"; "a" ] (Lru.keys_mru lru);
  (* touching "a" protects it from the next eviction *)
  check Alcotest.(option int) "hit" (Some 1) (Lru.find lru "a");
  Lru.add lru "d" 4;
  check
    Alcotest.(list string)
    "b evicted as LRU" [ "d"; "a"; "c" ] (Lru.keys_mru lru);
  check Alcotest.(option int) "evicted" None (Lru.find lru "b");
  check Alcotest.int "length" 3 (Lru.length lru);
  check Alcotest.int "hits" 1 (Lru.hits lru);
  check Alcotest.int "misses" 1 (Lru.misses lru);
  (* replacing refreshes recency without growing *)
  Lru.add lru "c" 33;
  check Alcotest.(list string) "replace bumps" [ "c"; "d"; "a" ] (Lru.keys_mru lru);
  check Alcotest.(option int) "replaced value" (Some 33) (Lru.find lru "c")

(* ---- Typed request / canonical key ------------------------------------------ *)

let decode_exn body =
  match Json.of_string body with
  | Error e -> Alcotest.failf "bad test JSON: %s" e
  | Ok j -> (
    match Api.decode_compare j with
    | Ok r -> r
    | Error e -> Alcotest.failf "decode failed: %s" e)

(* The canonical key format is a wire contract (journals and caches
   compare keys across releases), so the goldens pin the exact rendering
   — field order, separators, floats as %g wherever that reads back as
   the same float, sorted weight rules — not just equality relations. *)
let test_canonical_key_normalization () =
  let a =
    decode_exn
      {|{"dataset":"product-reviews","q":"  GPS ","weights":{"price":3,"battery":2}}|}
  in
  let b =
    decode_exn
      {|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":8,
         "algorithm":"multi-swap","threshold_pct":10.0,"measure":"raw",
         "weights":{"battery":2,"price":3}}|}
  in
  check Alcotest.string "golden full-scope key"
    "ds=product-reviews&q=gps&sel=top4&k=8&alg=multi-swap&thr=10&measure=raw&w=battery:2,price:3"
    (Api.canonical_key ~scope:Api.Full a);
  check Alcotest.string "golden context-scope key"
    "ds=product-reviews&q=gps&sel=top4&thr=10&measure=raw&w=battery:2,price:3"
    (Api.canonical_key ~scope:Api.Context a);
  check Alcotest.string "case/whitespace/rule-order insensitive"
    (Api.canonical_key ~scope:Api.Full a)
    (Api.canonical_key ~scope:Api.Full b);
  let c =
    decode_exn
      {|{"dataset":"product-reviews","q":"gps","algorithm":"greedy",
         "weights":{"price":3,"battery":2}}|}
  in
  if
    Api.canonical_key ~scope:Api.Full a = Api.canonical_key ~scope:Api.Full c
  then Alcotest.fail "different algorithm must change the full-scope key";
  check Alcotest.string
    "algorithm is outside context scope (pair tables don't depend on it)"
    (Api.canonical_key ~scope:Api.Context a)
    (Api.canonical_key ~scope:Api.Context c);
  let d =
    decode_exn {|{"dataset":"product-reviews","q":"gps","select":[1,3]}|}
  in
  check Alcotest.string "golden explicit-selection context key"
    "ds=product-reviews&q=gps&sel=1,3&thr=10&measure=raw&w="
    (Api.canonical_key ~scope:Api.Context d);
  if
    Api.canonical_key ~scope:Api.Full a = Api.canonical_key ~scope:Api.Full d
  then Alcotest.fail "explicit selection must change the key";
  (* the sessions' resolved-ranks convention: a top-form request whose
     selection resolved to ranks keys identically to the explicit form *)
  check Alcotest.string "resolved ranks == explicit select"
    (Api.canonical_key ~scope:Api.Context d)
    (Api.canonical_key ~scope:Api.Context
       { (decode_exn {|{"dataset":"product-reviews","q":"gps","top":2}|}) with
         Api.select = Some [ 1; 3 ];
       });
  (* both scopes, pinned byte for byte: the LRU and the intern table are
     keyed by these strings *)
  let keys body full context =
    let r = decode_exn body in
    check Alcotest.string ("full key of " ^ body) full
      (Api.canonical_key ~scope:Api.Full r);
    check Alcotest.string ("context key of " ^ body) context
      (Api.canonical_key ~scope:Api.Context r)
  in
  keys
    {|{"dataset":"imdb","q":"thriller heist","select":[3,1,12],"size_bound":5,"algorithm":"greedy"}|}
    "ds=imdb&q=thriller heist&sel=3,1,12&k=5&alg=greedy&thr=10&measure=raw&w="
    "ds=imdb&q=thriller heist&sel=3,1,12&thr=10&measure=raw&w=";
  keys {|{"dataset":"product-reviews","q":"gps","top":7}|}
    "ds=product-reviews&q=gps&sel=top7&k=8&alg=multi-swap&thr=10&measure=raw&w="
    "ds=product-reviews&q=gps&sel=top7&thr=10&measure=raw&w=";
  keys
    {|{"dataset":"product-reviews","q":"gps","weights":{"price":3,"battery":2,"brand":0,"screen":10}}|}
    "ds=product-reviews&q=gps&sel=top4&k=8&alg=multi-swap&thr=10&measure=raw&w=battery:2,brand:0,price:3,screen:10"
    "ds=product-reviews&q=gps&sel=top4&thr=10&measure=raw&w=battery:2,brand:0,price:3,screen:10";
  keys
    {|{"dataset":"outdoor-retailer","q":"tent","measure":"rate","threshold_pct":12.5}|}
    "ds=outdoor-retailer&q=tent&sel=top4&k=8&alg=multi-swap&thr=12.5&measure=rate&w="
    "ds=outdoor-retailer&q=tent&sel=top4&thr=12.5&measure=rate&w=";
  keys
    {|{"dataset":"product-reviews","q":"gps","select":[2],"measure":"rate","threshold_pct":1e-7,"algorithm":"single-swap"}|}
    "ds=product-reviews&q=gps&sel=2&k=8&alg=single-swap&thr=1e-07&measure=rate&w="
    "ds=product-reviews&q=gps&sel=2&thr=1e-07&measure=rate&w="

let test_decode_errors () =
  let bad body =
    match Json.of_string body with
    | Error _ -> ()
    | Ok j -> (
      match Api.decode_compare j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" body)
  in
  bad {|{"q":"gps"}|};
  bad {|{"dataset":"product-reviews"}|};
  bad {|{"dataset":"product-reviews","q":"gps","algorithm":"quantum"}|};
  bad {|{"dataset":"product-reviews","q":"gps","select":"1"}|};
  (* the engine picks its own domain count: a client-sent "domains" is an
     unknown field like any other, ignored rather than rejected *)
  check Alcotest.string "domains field ignored"
    (Api.canonical_key ~scope:Api.Full
       (decode_exn {|{"dataset":"product-reviews","q":"gps"}|}))
    (Api.canonical_key ~scope:Api.Full
       (decode_exn {|{"dataset":"product-reviews","q":"gps","domains":0}|}))

(* A threshold survives the request's text form: decode ∘ print ∘
   json_of_compare is the identity on every finite float. 9.99999999999999
   once printed as "10" (%.12g) — a journaled session came back at a
   different threshold. *)
let prop_threshold_roundtrip =
  QCheck.Test.make ~name:"every finite threshold survives print and decode"
    ~count:500
    QCheck.(
      make
        Gen.(oneof [ float; float_range 0. 100.; return 9.99999999999999 ]))
    (fun thr ->
      QCheck.assume (Float.is_finite thr);
      let r =
        { (decode_exn {|{"dataset":"product-reviews","q":"gps"}|}) with
          Api.threshold_pct = thr }
      in
      match
        Result.bind
          (Json.of_string (Json.to_string (Api.json_of_compare r)))
          Api.decode_compare
      with
      | Ok r' -> Float.equal r'.Api.threshold_pct thr && r' = r
      | Error _ -> false)

let test_threshold_keys () =
  let key thr =
    Api.canonical_key ~scope:Api.Context
      { (decode_exn {|{"dataset":"product-reviews","q":"gps"}|}) with
        Api.threshold_pct = thr }
  in
  check Alcotest.string "%g where it round-trips"
    "ds=product-reviews&q=gps&sel=top4&thr=12.5&measure=raw&w=" (key 12.5);
  check Alcotest.string "more digits where it does not"
    "ds=product-reviews&q=gps&sel=top4&thr=9.9999999&measure=raw&w="
    (key 9.9999999);
  check Alcotest.string "exponent form below 1e-4"
    "ds=product-reviews&q=gps&sel=top4&thr=1e-07&measure=raw&w=" (key 1e-7);
  check Alcotest.string "full scope, same threshold text"
    "ds=product-reviews&q=gps&sel=top4&k=8&alg=multi-swap&thr=9.9999999&measure=raw&w="
    (Api.canonical_key ~scope:Api.Full
       { (decode_exn {|{"dataset":"product-reviews","q":"gps"}|}) with
         Api.threshold_pct = 9.9999999 });
  if key 9.99999999999999 = key 10. then
    Alcotest.fail "9.99999999999999 and 10 share a key"

(* ---- Server.handle (no sockets) --------------------------------------------- *)

let server =
  lazy (Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4 ())

let handle ?meth ?body target =
  Server.handle (Lazy.force server) (request ?meth ?body target)

let compare_body =
  {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":6}|}

let member_exn name body =
  match Json.of_string body with
  | Ok j -> (
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "no field %S in %s" name body)
  | Error e -> Alcotest.failf "bad response JSON %s: %s" body e

let test_handle_basic () =
  let resp = handle "/health" in
  check Alcotest.int "health status" 200 resp.Http.status;
  check Alcotest.string "health body" {|{"status":"ok"}|} resp.Http.resp_body;
  let resp = handle "/datasets" in
  check Alcotest.int "datasets status" 200 resp.Http.status;
  (match member_exn "datasets" resp.Http.resp_body with
  | Json.List [ ds ] ->
    check json "dataset name" (Json.String "product-reviews")
      (Option.value ~default:Json.Null (Json.member "name" ds))
  | _ -> Alcotest.fail "expected one dataset");
  let resp = handle ~meth:"POST" ~body:"{}" "/health" in
  check Alcotest.int "405 on wrong verb" 405 resp.Http.status;
  check Alcotest.(option string) "Allow header" (Some "GET")
    (List.assoc_opt "Allow" resp.Http.resp_headers);
  let resp = handle "/no/such/route" in
  check Alcotest.int "404" 404 resp.Http.status

let test_handle_search () =
  let resp = handle "/search?dataset=product-reviews&q=gps&limit=3" in
  check Alcotest.int "search status" 200 resp.Http.status;
  (match member_exn "count" resp.Http.resp_body with
  | Json.Int n when n > 0 && n <= 3 -> ()
  | v -> Alcotest.failf "bad count %s" (Json.to_string v));
  check Alcotest.int "missing q" 400 (handle "/search?dataset=product-reviews").Http.status;
  check Alcotest.int "unknown dataset" 404
    (handle "/search?dataset=nope&q=gps").Http.status

(* [limit] is a non-negative decimal integer or absent (10; an empty
   value counts as absent, like every query parameter): anything else is
   a 400 naming the parameter, not a silent default. *)
let test_handle_search_limit () =
  let search limit =
    handle ("/search?dataset=product-reviews&q=gps&limit=" ^ limit)
  in
  let error_field resp name =
    match Json.member name (member_exn "error" resp.Http.resp_body) with
    | Some (Json.String v) -> v
    | _ -> Alcotest.failf "no error %s in %s" name resp.Http.resp_body
  in
  List.iter
    (fun bad ->
      let resp = search bad in
      check Alcotest.int ("limit=" ^ bad) 400 resp.Http.status;
      check Alcotest.string ("limit=" ^ bad ^ ": code") "bad_request"
        (error_field resp "code");
      check Alcotest.bool ("limit=" ^ bad ^ ": names limit") true
        (Xsact_util.Textutil.contains_substring (error_field resp "message")
           "limit"))
    [ "abc"; "-1"; "1.5"; "0x10"; "99999999999999999999" ];
  let count resp =
    check Alcotest.int "search status" 200 resp.Http.status;
    member_exn "count" resp.Http.resp_body
  in
  check json "limit=0" (Json.Int 0) (count (search "0"));
  check json "limit=1" (Json.Int 1) (count (search "1"));
  ignore (count (search "1000000"))

let test_handle_compare_errors () =
  check Alcotest.int "bad JSON" 400
    (handle ~meth:"POST" ~body:"{oops" "/compare").Http.status;
  (* 1 MiB of [ is refused at the bracket past the depth bound *)
  let deep = handle ~meth:"POST" ~body:(String.make (1 lsl 20) '[') "/compare" in
  check Alcotest.int "1 MiB of [" 400 deep.Http.status;
  check Alcotest.string "1 MiB of [: the message"
    (Api.error_body ~code:"bad_request"
       "invalid JSON: byte 512: nesting deeper than 512")
    deep.Http.resp_body;
  check Alcotest.int "unknown dataset" 404
    (handle ~meth:"POST"
       ~body:{|{"dataset":"nope","q":"gps"}|} "/compare")
      .Http.status;
  check Alcotest.int "no results" 404
    (handle ~meth:"POST"
       ~body:{|{"dataset":"product-reviews","q":"zzzqqqxxx"}|} "/compare")
      .Http.status;
  check Alcotest.int "bound too small" 422
    (handle ~meth:"POST"
       ~body:{|{"dataset":"product-reviews","q":"gps","size_bound":0}|}
       "/compare")
      .Http.status;
  check Alcotest.int "exhaustive rejected" 422
    (handle ~meth:"POST"
       ~body:{|{"dataset":"product-reviews","q":"gps","algorithm":"exhaustive"}|}
       "/compare")
      .Http.status;
  check Alcotest.int "rank out of range" 422
    (handle ~meth:"POST"
       ~body:{|{"dataset":"product-reviews","q":"gps","select":[1,999]}|}
       "/compare")
      .Http.status

(* The SLCA pass gives each keyword one bit of an int: 64 distinct words
   that occur nowhere must be refused, not folded into a mask that matches
   everything. 63 such words are a valid query with no results. *)
let test_handle_keyword_bound () =
  let words n =
    String.concat " " (List.init n (Printf.sprintf "zzq%d"))
  in
  let body n =
    Printf.sprintf {|{"dataset":"product-reviews","q":"%s","top":3}|}
      (words n)
  in
  let code resp =
    match Json.member "code" (member_exn "error" resp.Http.resp_body) with
    | Some (Json.String c) -> c
    | _ -> Alcotest.failf "no error code in %s" resp.Http.resp_body
  in
  let resp = handle ~meth:"POST" ~body:(body 64) "/compare" in
  check Alcotest.int "compare, 64 keywords" 400 resp.Http.status;
  check Alcotest.string "compare, 64 keywords: code" "bad_request" (code resp);
  let resp = handle ~meth:"POST" ~body:(body 63) "/compare" in
  check Alcotest.int "compare, 63 keywords" 404 resp.Http.status;
  check Alcotest.string "compare, 63 keywords: code" "no_results" (code resp);
  check Alcotest.int "session, 64 keywords" 400
    (handle ~meth:"POST" ~body:(body 64) "/session").Http.status;
  let search n =
    handle
      ("/search?dataset=product-reviews&q="
      ^ String.concat "+" (String.split_on_char ' ' (words n)))
  in
  check Alcotest.int "search, 64 keywords" 400 (search 64).Http.status;
  let resp = search 63 in
  check Alcotest.int "search, 63 keywords" 200 resp.Http.status;
  check json "search, 63 keywords: no results" (Json.Int 0)
    (member_exn "count" resp.Http.resp_body)

let test_handle_compare_cache () =
  let miss = handle ~meth:"POST" ~body:compare_body "/compare" in
  check Alcotest.int "compare ok" 200 miss.Http.status;
  check Alcotest.(option string) "first is a miss" (Some "miss")
    (List.assoc_opt "X-Cache" miss.Http.resp_headers);
  let hit = handle ~meth:"POST" ~body:compare_body "/compare" in
  check Alcotest.(option string) "second is a hit" (Some "hit")
    (List.assoc_opt "X-Cache" hit.Http.resp_headers);
  check Alcotest.string "byte-identical body" miss.Http.resp_body
    hit.Http.resp_body;
  (* a differently-spelled but equivalent request also hits *)
  let equiv =
    {|{"dataset":"product-reviews","q":"GPS","top":3,"size_bound":6,"measure":"raw"}|}
  in
  let hit2 = handle ~meth:"POST" ~body:equiv "/compare" in
  check Alcotest.(option string) "normalized request hits" (Some "hit")
    (List.assoc_opt "X-Cache" hit2.Http.resp_headers);
  check Alcotest.string "same body" miss.Http.resp_body hit2.Http.resp_body;
  match member_exn "dod" miss.Http.resp_body with
  | Json.Int dod when dod >= 0 -> ()
  | v -> Alcotest.failf "bad dod %s" (Json.to_string v)

let test_handle_sessions () =
  check Alcotest.int "duplicate select ranks rejected" 422
    (handle ~meth:"POST"
       ~body:{|{"dataset":"product-reviews","q":"gps","select":[1,2,1]}|}
       "/session")
      .Http.status;
  let created =
    handle ~meth:"POST" ~body:compare_body "/session"
  in
  check Alcotest.int "created" 201 created.Http.status;
  let id =
    match member_exn "id" created.Http.resp_body with
    | Json.String id -> id
    | _ -> Alcotest.fail "no session id"
  in
  let got = handle ("/session/" ^ id) in
  check Alcotest.int "get" 200 got.Http.status;
  (match member_exn "table" got.Http.resp_body with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "session table missing");
  let added =
    handle ~meth:"POST" ~body:{|{"rank":4}|} ("/session/" ^ id ^ "/add")
  in
  check Alcotest.int "add" 200 added.Http.status;
  check json "ranks after add"
    (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3; Json.Int 4 ])
    (member_exn "ranks" added.Http.resp_body);
  check Alcotest.int "double add rejected" 422
    (handle ~meth:"POST" ~body:{|{"rank":4}|} ("/session/" ^ id ^ "/add"))
      .Http.status;
  let removed =
    handle ~meth:"POST" ~body:{|{"rank":2}|} ("/session/" ^ id ^ "/remove")
  in
  check Alcotest.int "remove" 200 removed.Http.status;
  check json "ranks after remove"
    (Json.List [ Json.Int 1; Json.Int 3; Json.Int 4 ])
    (member_exn "ranks" removed.Http.resp_body);
  let resized =
    handle ~meth:"POST" ~body:{|{"size_bound":9}|} ("/session/" ^ id ^ "/size")
  in
  check Alcotest.int "resize" 200 resized.Http.status;
  check json "new bound" (Json.Int 9) (member_exn "size_bound" resized.Http.resp_body);
  check Alcotest.int "bad resize" 422
    (handle ~meth:"POST" ~body:{|{"size_bound":0}|}
       ("/session/" ^ id ^ "/size"))
      .Http.status;
  check Alcotest.int "delete" 200
    (handle ~meth:"DELETE" ("/session/" ^ id)).Http.status;
  check Alcotest.int "gone" 404 (handle ("/session/" ^ id)).Http.status;
  check Alcotest.int "unknown session" 404
    (handle ~meth:"POST" ~body:{|{"rank":1}|} "/session/sX/add").Http.status

(* Requests once carried a client-chosen domain count, and "domains":200
   left the process unable to serve. The field is ignored now, and the
   engine runs in one domain, so such a request is an ordinary compare on
   a fresh server as on any other. *)
let test_handle_domains_ignored () =
  let t = Server.create ~datasets:[ "product-reviews" ] () in
  let post body target =
    (Server.handle t (request ~meth:"POST" ~body target)).Http.status
  in
  check Alcotest.int "compare with domains:200" 200
    (post {|{"dataset":"product-reviews","q":"gps","domains":200}|}
       "/compare");
  check Alcotest.int "ordinary compare after it" 200
    (post compare_body "/compare");
  check Alcotest.int "session create after it" 201
    (post compare_body "/session")

(* One duplicate-rank check serves /compare and POST /session: a
   selection naming a result twice answers the same 422 on both routes
   (/compare used to compare the result against itself). *)
let test_handle_duplicate_ranks () =
  let body = {|{"dataset":"product-reviews","q":"gps","select":[1,1,2]}|} in
  let compared = handle ~meth:"POST" ~body "/compare" in
  let created = handle ~meth:"POST" ~body "/session" in
  check Alcotest.int "compare rejects" 422 compared.Http.status;
  check Alcotest.int "session rejects" 422 created.Http.status;
  check Alcotest.string "the session's body"
    {|{"error":{"code":"unprocessable","message":"duplicate rank 1 in \"select\""}}|}
    created.Http.resp_body;
  check Alcotest.string "same body on both routes" created.Http.resp_body
    compared.Http.resp_body

let error_code body =
  match Json.member "code" (member_exn "error" body) with
  | Some (Json.String code) -> code
  | _ -> Alcotest.failf "no error code in %s" body

(* The size bound is the client's, so the engine sizes nothing by it: a
   bound no result can fill is the same comparison as the largest
   result's feature count. *)
let test_handle_huge_size_bound () =
  let resp =
    handle ~meth:"POST"
      ~body:
        {|{"dataset":"product-reviews","q":"gps","top":3,"size_bound":4611686018427387903}|}
      "/compare"
  in
  check Alcotest.int "max_int bound answers" 200 resp.Http.status

(* A selection as long as the body allows is checked in O(n log n): a
   200,000-rank select answers its 422 within seconds on both routes,
   and the duplicate message still names the first rank that repeats an
   earlier one. *)
let test_handle_long_selection () =
  let select ranks =
    Printf.sprintf {|{"dataset":"product-reviews","q":"gps","select":[%s]}|}
      (String.concat "," (List.map string_of_int ranks))
  in
  let long = List.init 200_000 (fun i -> i + 1) in
  let timed what expected_code body =
    List.iter
      (fun route ->
        let t0 = Unix.gettimeofday () in
        let resp = handle ~meth:"POST" ~body route in
        let elapsed = Unix.gettimeofday () -. t0 in
        check Alcotest.int (what ^ " on " ^ route) 422 resp.Http.status;
        check Alcotest.string (what ^ " code on " ^ route) expected_code
          (error_code resp.Http.resp_body);
        if elapsed > 10. then
          Alcotest.failf "%s on %s took %.1f s" what route elapsed)
      [ "/compare"; "/session" ]
  in
  timed "200,000 distinct ranks" "rank_out_of_range" (select long);
  timed "200,000 ranks and a repeat" "unprocessable" (select (long @ [ 7 ]));
  let resp = handle ~meth:"POST" ~body:(select [ 3; 1; 2; 1; 3 ]) "/session" in
  check Alcotest.string "first repeat in list order"
    {|{"error":{"code":"unprocessable","message":"duplicate rank 1 in \"select\""}}|}
    resp.Http.resp_body

(* Decodable requests the engine would refuse answer the 4xx their
   sibling routes already answer, never a 500: a negative weight is a
   bad request naming its pattern (as PATCH /params rejects it), and a
   negative top selects nothing (as on /compare). *)
let negative_weight route () =
  let resp =
    handle ~meth:"POST"
      ~body:{|{"dataset":"product-reviews","q":"gps","weights":{"price":-2}}|}
      route
  in
  check Alcotest.int "negative weight" 400 resp.Http.status;
  check Alcotest.string "negative weight body"
    {|{"error":{"code":"bad_request","message":"negative weight -2 for pattern \"price\""}}|}
    resp.Http.resp_body

let test_handle_negative_top () =
  List.iter
    (fun route ->
      let resp =
        handle ~meth:"POST"
          ~body:{|{"dataset":"product-reviews","q":"gps","top":-1}|} route
      in
      check Alcotest.int ("negative top on " ^ route) 422 resp.Http.status;
      check Alcotest.string ("negative top code on " ^ route)
        "too_few_selected"
        (error_code resp.Http.resp_body))
    [ "/session"; "/compare" ]

(* Thresholds that print alike under %g once shared a cache key: after a
   /compare at 9.9999999 %, one at 10 % was a cache hit serving the
   first body, although counts 10 and 11 differ at the first threshold
   and not at the second (gps, top 16, L 12 has such a pair in its
   table). *)
let test_handle_threshold_key () =
  let body thr =
    Printf.sprintf
      {|{"dataset":"product-reviews","q":"gps","top":16,"size_bound":12,"threshold_pct":%s}|}
      thr
  in
  let timeless resp =
    match Json.of_string resp.Http.resp_body with
    | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") fields))
    | _ -> Alcotest.failf "bad compare body %s" resp.Http.resp_body
  in
  let post t thr =
    Server.handle t (request ~meth:"POST" ~body:(body thr) "/compare")
  in
  let t = Server.create ~datasets:[ "product-reviews" ] () in
  let first = post t "9.9999999" in
  let second = post t "10" in
  check Alcotest.int "first ok" 200 first.Http.status;
  check Alcotest.(option string) "10 after 9.9999999 is a miss" (Some "miss")
    (List.assoc_opt "X-Cache" second.Http.resp_headers);
  if timeless first = timeless second then
    Alcotest.fail "9.9999999 and 10 should compare differently here";
  let fresh = post (Server.create ~datasets:[ "product-reviews" ] ()) "10" in
  check Alcotest.string "10 answers what a fresh server answers"
    (timeless fresh) (timeless second)

(* 1e400 overflows a float; it is a bad request on every route that
   takes a threshold, never a journaled "inf" that no later parse
   accepts. *)
let test_handle_infinite_threshold () =
  let body = {|{"dataset":"product-reviews","q":"gps","threshold_pct":1e400}|} in
  List.iter
    (fun route ->
      check Alcotest.int ("1e400 on " ^ route) 400
        (handle ~meth:"POST" ~body route).Http.status)
    [ "/compare"; "/session" ];
  let created = handle ~meth:"POST" ~body:compare_body "/session" in
  let id =
    match member_exn "id" created.Http.resp_body with
    | Json.String id -> id
    | _ -> Alcotest.fail "no session id"
  in
  check Alcotest.int "1e400 on PATCH params" 400
    (handle ~meth:"PATCH" ~body:{|{"threshold_pct":1e400}|}
       ("/session/" ^ id ^ "/params"))
      .Http.status

let test_handle_metrics () =
  let resp = handle "/metrics" in
  check Alcotest.int "metrics status" 200 resp.Http.status;
  (match member_exn "requests_total" resp.Http.resp_body with
  | Json.Int n when n > 0 -> ()
  | v -> Alcotest.failf "requests_total not positive: %s" (Json.to_string v));
  match Json.member "hits" (member_exn "cache" resp.Http.resp_body) with
  | Some (Json.Int hits) when hits > 0 -> ()
  | _ -> Alcotest.fail "cache hits should be positive after the cache test"

(* ---- End-to-end over sockets ------------------------------------------------ *)

let test_e2e_concurrent () =
  let t = Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:8 () in
  let running = Server.start ~threads:8 ~port:0 t in
  let port = Server.port running in
  Fun.protect
    ~finally:(fun () -> Server.stop running)
    (fun () ->
      let status, _, body = Http.request ~host:"127.0.0.1" ~port "/health" in
      check Alcotest.int "health over socket" 200 status;
      check Alcotest.string "health body" {|{"status":"ok"}|} body;
      (* cold request, then 8 concurrent clients on the same comparison *)
      let _, cold_headers, cold_body =
        Http.request ~host:"127.0.0.1" ~port ~body:compare_body "/compare"
      in
      check Alcotest.(option string) "cold is a miss" (Some "miss")
        (List.assoc_opt "x-cache" cold_headers);
      let results = Array.make 8 (0, [], "") in
      let clients =
        List.init 8 (fun i ->
            Thread.create
              (fun i ->
                results.(i) <-
                  Http.request ~host:"127.0.0.1" ~port ~body:compare_body
                    "/compare")
              i)
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i (status, headers, body) ->
          check Alcotest.int (Printf.sprintf "client %d status" i) 200 status;
          check Alcotest.string
            (Printf.sprintf "client %d byte-identical" i)
            cold_body body;
          check Alcotest.(option string)
            (Printf.sprintf "client %d cache hit" i)
            (Some "hit")
            (List.assoc_opt "x-cache" headers))
        results;
      (* the warm repeat is served from the cache: the server's own
         counters show one hit, no miss and no context build — the work a
         hit skips, which a wall-clock race against one cold sample could
         only stand in for *)
      let counters () =
        let _, _, m = Http.request ~host:"127.0.0.1" ~port "/metrics" in
        let cache name =
          match Json.member name (member_exn "cache" m) with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.failf "no cache.%s in /metrics" name
        in
        match member_exn "context_builds_full" m with
        | Json.Int builds -> (cache "hits", cache "misses", builds)
        | _ -> Alcotest.fail "no context_builds_full in /metrics"
      in
      let hits0, misses0, builds0 = counters () in
      let _, warm_headers, warm_body =
        Http.request ~host:"127.0.0.1" ~port ~body:compare_body "/compare"
      in
      let hits1, misses1, builds1 = counters () in
      check Alcotest.string "warm byte-identical" cold_body warm_body;
      check Alcotest.(option string) "warm is a hit" (Some "hit")
        (List.assoc_opt "x-cache" warm_headers);
      check Alcotest.int "warm: one cache hit" (hits0 + 1) hits1;
      check Alcotest.int "warm: no cache miss" misses0 misses1;
      check Alcotest.int "warm: no context build" builds0 builds1;
      (* keep-alive: several requests on one connection *)
      Http.with_connection ~host:"127.0.0.1" ~port (fun call ->
          let status, _, _ = call "/health" in
          check Alcotest.int "keep-alive 1" 200 status;
          let status, _, _ = call ~body:compare_body "/compare" in
          check Alcotest.int "keep-alive 2" 200 status;
          let status, _, _ = call "/metrics" in
          check Alcotest.int "keep-alive 3" 200 status);
      (* metrics reflect the traffic *)
      let _, _, metrics = Http.request ~host:"127.0.0.1" ~port "/metrics" in
      (match member_exn "requests_total" metrics with
      | Json.Int n when n >= 13 -> ()
      | v -> Alcotest.failf "requests_total too small: %s" (Json.to_string v));
      match Json.member "hits" (member_exn "cache" metrics) with
      | Some (Json.Int hits) when hits >= 9 -> ()
      | v ->
        Alcotest.failf "expected >= 9 cache hits, got %s"
          (match v with Some v -> Json.to_string v | None -> "nothing"))

(* Regression: a worker parked in a keep-alive read must not stall stop.
   Hold open a connection that already served one request (its worker is
   blocked reading the next request line) plus one that never sent a byte,
   then require stop to join every thread promptly. *)
let test_stop_with_idle_connections () =
  let t = Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4 () in
  let running = Server.start ~threads:2 ~port:0 t in
  let port = Server.port running in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let connect () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock addr;
    sock
  in
  let keep_alive = connect () in
  let oc = Unix.out_channel_of_descr keep_alive in
  let ic = Unix.in_channel_of_descr keep_alive in
  Http.send_request oc ~host:"127.0.0.1" "/health";
  let status, _, _ = Http.read_response ic in
  check Alcotest.int "request served before idling" 200 status;
  let silent = connect () in
  let stopped = ref false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop running;
        stopped := true)
      ()
  in
  (* Bounded wait: if stop hangs on the idle connections, fail instead of
     wedging the whole suite. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while (not !stopped) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  if not !stopped then Alcotest.fail "stop did not return with idle clients";
  Thread.join stopper;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ keep_alive; silent ]

(* ---- Allocation on the hit path ------------------------------------------ *)

(* Minor and major words [f ()] allocates. The minor heap is emptied
   first, and [f] allocates far less than it holds, so no minor collection
   runs inside [f] and the major count is [f]'s own direct major
   allocation, never a promotion. Minor words come from [Gc.minor_words]
   and major words from [Gc.counters], whose major count includes direct
   allocations at once ([Gc.quick_stat]'s catches up only at a major
   slice). Counts are deterministic single-threaded. *)
let allocation f =
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let v = f () in
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  (v, minor1 -. minor0, major1 -. major0)

(* A string over 256 words (2 KiB) is allocated straight in the major
   heap, so writing must not copy the body: the channel takes it as is. *)
let test_write_allocation () =
  let resp =
    Http.response ~headers:[ ("X-Cache", "hit") ] ~status:200
      (String.make 4096 'x')
  in
  Out_channel.with_open_bin Filename.null (fun oc ->
      Http.write_response oc resp;
      let (), _, major = allocation (fun () -> Http.write_response oc resp) in
      check (Alcotest.float 0.) "major words writing a 4 KiB body" 0. major)

(* Minor words one LRU hit may allocate, read + handle + write. It reads
   795 on OCaml 5.1; with a [char option] per byte read or parsed, a
   [Printf] key and a copied body it read 1,773. *)
let hit_minor_budget = 1000.

(* One hot hit as the daemon serves it: [Http.read_request] of the bytes
   e2ebench's client sends ([Http.send_request]), [Server.handle] answering
   from the LRU, and [Http.write_response] of the ~2.9 KiB body. *)
let test_hit_allocation () =
  let t = Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4 () in
  let body = {|{"dataset":"product-reviews","q":"gps","top":4,"size_bound":8}|} in
  let warmup = 20 and hits = 1000 in
  let file = Filename.temp_file "xsact_hits" ".http" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          for _ = 1 to warmup + hits do
            Http.send_request oc ~host:"127.0.0.1" ~body "/compare"
          done);
      In_channel.with_open_bin file (fun ic ->
          Out_channel.with_open_bin Filename.null (fun oc ->
              let hit () =
                match Http.read_request ic with
                | Ok req ->
                  let resp = Server.handle t req in
                  Http.write_response oc resp;
                  resp
                | Error _ -> Alcotest.fail "request did not parse"
              in
              for _ = 1 to warmup do
                ignore (hit ())
              done;
              let minor = ref 0. and major = ref 0. and served = ref 0 in
              for _ = 1 to hits do
                let resp, mi, ma = allocation hit in
                if List.assoc_opt "X-Cache" resp.Http.resp_headers = Some "hit"
                then incr served;
                minor := !minor +. mi;
                major := !major +. ma
              done;
              check Alcotest.int "every request served from the LRU" hits
                !served;
              let per_hit x = x /. float_of_int hits in
              check (Alcotest.float 0.) "major words per hit" 0.
                (per_hit !major);
              if per_hit !minor > hit_minor_budget then
                Alcotest.failf "%.0f minor words per hit, budget %.0f"
                  (per_hit !minor) hit_minor_budget)))

(* ---- Request limits: 431 on oversized headers, 413 on oversized body ---- *)

let with_limits_server f =
  let t = Server.create ~datasets:[ "product-reviews" ] ~cache_capacity:4 () in
  let running = Server.start ~threads:2 ~port:0 t in
  Fun.protect
    ~finally:(fun () -> Server.stop running)
    (fun () -> f (Server.port running))

let with_raw_socket port f =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      f sock (Unix.in_channel_of_descr sock) (Unix.out_channel_of_descr sock))

let test_header_limits () =
  with_limits_server (fun port ->
      (* 64 headers pass; the 65th is refused *)
      with_raw_socket port (fun _ ic oc ->
          Out_channel.output_string oc "GET /health HTTP/1.1\r\n";
          for i = 1 to Http.max_headers do
            Out_channel.output_string oc (Printf.sprintf "X-H%d: v\r\n" i)
          done;
          Out_channel.output_string oc "\r\n";
          Out_channel.flush oc;
          let status, _, _ = Http.read_response ic in
          check Alcotest.int "max_headers exactly is fine" 200 status);
      with_raw_socket port (fun _ ic oc ->
          Out_channel.output_string oc "GET /health HTTP/1.1\r\n";
          for i = 1 to Http.max_headers + 1 do
            Out_channel.output_string oc (Printf.sprintf "X-H%d: v\r\n" i)
          done;
          Out_channel.output_string oc "\r\n";
          Out_channel.flush oc;
          let status, _, body = Http.read_response ic in
          check Alcotest.int "too many headers" 431 status;
          check Alcotest.bool "names the limit" true
            (Xsact_util.Textutil.contains_substring body "64"));
      (* one header line past the byte bound *)
      with_raw_socket port (fun _ ic oc ->
          Out_channel.output_string oc "GET /health HTTP/1.1\r\n";
          Out_channel.output_string oc
            ("X-Big: " ^ String.make Http.max_header_line_bytes 'a' ^ "\r\n\r\n");
          Out_channel.flush oc;
          let status, _, _ = Http.read_response ic in
          check Alcotest.int "oversized header line" 431 status);
      (* the bound is the line's length without its terminator: a line of
         exactly [max_header_line_bytes] passes whether it ends in CRLF or
         a bare LF, and one byte more is refused either way *)
      List.iter
        (fun (len, eol, expected) ->
          with_raw_socket port (fun _ ic oc ->
              let line = "X-Big: " ^ String.make (len - 7) 'a' in
              Out_channel.output_string oc
                ("GET /health HTTP/1.1" ^ eol ^ line ^ eol ^ eol);
              Out_channel.flush oc;
              let status, _, _ = Http.read_response ic in
              check Alcotest.int
                (Printf.sprintf "%d-byte header line ending in %S" len eol)
                expected status))
        [
          (Http.max_header_line_bytes, "\r\n", 200);
          (Http.max_header_line_bytes, "\n", 200);
          (Http.max_header_line_bytes + 1, "\r\n", 431);
          (Http.max_header_line_bytes + 1, "\n", 431);
        ];
      (* server still healthy afterwards *)
      let status, _, _ = Http.request ~host:"127.0.0.1" ~port "/health" in
      check Alcotest.int "still serving" 200 status)

(* Regression: a client streaming 10 MiB of header must be refused after
   ~8 KiB, with the response arriving long before the stream completes —
   the server never buffers the flood. *)
let test_header_stream_10mib () =
  with_limits_server (fun port ->
      with_raw_socket port (fun sock ic oc ->
          Out_channel.output_string oc "GET /health HTTP/1.1\r\nX-Flood: ";
          Out_channel.flush oc;
          let chunk = String.make 65536 'z' in
          let total = 10 * 1024 * 1024 in
          let sent = ref 0 in
          let refused_early = ref false in
          (try
             while !sent < total && not !refused_early do
               (* stop flooding the moment the server has answered *)
               let readable, _, _ = Unix.select [ sock ] [] [] 0. in
               if readable <> [] then refused_early := true
               else begin
                 Out_channel.output_string oc chunk;
                 Out_channel.flush oc;
                 sent := !sent + String.length chunk
               end
             done
           with Sys_error _ | Unix.Unix_error _ ->
             (* server already closed on us: also an early refusal *)
             refused_early := true);
          check Alcotest.bool
            (Printf.sprintf "refused before 10 MiB (sent %d)" !sent)
            true
            (!refused_early && !sent < total);
          let status, _, _ = Http.read_response ic in
          check Alcotest.int "431 on header flood" 431 status))

let test_body_limits () =
  with_limits_server (fun port ->
      (* exactly max_body_bytes is read and dispatched (bad JSON, not 413) *)
      with_raw_socket port (fun _ ic oc ->
          Out_channel.output_string oc
            (Printf.sprintf
               "POST /compare HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
               Http.max_body_bytes);
          Out_channel.output_string oc (String.make Http.max_body_bytes 'x');
          Out_channel.flush oc;
          let status, _, _ = Http.read_response ic in
          check Alcotest.int "boundary body accepted" 400 status);
      (* one byte past: refused up front, before any body is sent *)
      with_raw_socket port (fun _ ic oc ->
          Out_channel.output_string oc
            (Printf.sprintf
               "POST /compare HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
               (Http.max_body_bytes + 1));
          Out_channel.flush oc;
          let status, headers, body = Http.read_response ic in
          check Alcotest.int "oversized body" 413 status;
          check Alcotest.(option string) "closes the connection"
            (Some "close")
            (List.assoc_opt "connection" headers);
          check Alcotest.bool "names the limit" true
            (Xsact_util.Textutil.contains_substring body
               (string_of_int Http.max_body_bytes))))

let () =
  Alcotest.run "xsact_serve"
    [
      ( "http",
        [
          Alcotest.test_case "request line" `Quick test_request_line;
          Alcotest.test_case "header line" `Quick test_header_line;
          Alcotest.test_case "target splitting" `Quick test_split_target;
          Alcotest.test_case "response bytes" `Quick test_response_bytes;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "depth bound" `Quick test_json_depth;
        ] );
      ( "router",
        [
          Alcotest.test_case "patterns" `Quick test_router_params;
          Alcotest.test_case "dispatch" `Quick test_router_dispatch;
        ] );
      ("lru", [ Alcotest.test_case "eviction order" `Quick test_lru_eviction ]);
      ( "api",
        [
          Alcotest.test_case "cache-key normalization" `Quick
            test_canonical_key_normalization;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "threshold keys" `Quick test_threshold_keys;
          QCheck_alcotest.to_alcotest prop_threshold_roundtrip;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "write copies no body" `Quick
            test_write_allocation;
          Alcotest.test_case "hit budget" `Quick test_hit_allocation;
        ] );
      ( "handle",
        [
          Alcotest.test_case "basic routes" `Quick test_handle_basic;
          Alcotest.test_case "search" `Quick test_handle_search;
          Alcotest.test_case "search limit" `Quick test_handle_search_limit;
          Alcotest.test_case "compare errors" `Quick test_handle_compare_errors;
          Alcotest.test_case "keyword bound" `Quick test_handle_keyword_bound;
          Alcotest.test_case "compare cache" `Quick test_handle_compare_cache;
          Alcotest.test_case "sessions" `Quick test_handle_sessions;
          Alcotest.test_case "domains field ignored" `Quick
            test_handle_domains_ignored;
          Alcotest.test_case "duplicate ranks rejected" `Quick
            test_handle_duplicate_ranks;
          Alcotest.test_case "huge size bound" `Quick
            test_handle_huge_size_bound;
          Alcotest.test_case "long selections" `Quick
            test_handle_long_selection;
          Alcotest.test_case "negative weight on /compare" `Quick
            (negative_weight "/compare");
          Alcotest.test_case "negative weight on /session" `Quick
            (negative_weight "/session");
          Alcotest.test_case "negative top on /session" `Quick
            test_handle_negative_top;
          Alcotest.test_case "threshold key after 9.9999999" `Quick
            test_handle_threshold_key;
          Alcotest.test_case "infinite threshold" `Quick
            test_handle_infinite_threshold;
          Alcotest.test_case "metrics" `Quick test_handle_metrics;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "concurrent clients" `Quick test_e2e_concurrent;
          Alcotest.test_case "stop with idle connections" `Quick
            test_stop_with_idle_connections;
        ] );
      ( "limits",
        [
          Alcotest.test_case "header count and line bounds" `Quick
            test_header_limits;
          Alcotest.test_case "10 MiB header stream" `Quick
            test_header_stream_10mib;
          Alcotest.test_case "body size boundary" `Quick test_body_limits;
        ] );
    ]
