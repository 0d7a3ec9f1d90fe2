(* Fuzz smoke for the parsers that read untrusted bytes. The xmlkit
   parsers: seeded random bytes, markup-shaped noise, and mutations of
   valid documents are driven through both [Xml_parse.parse_string] (the
   DOM) and [Xml_sax.fold] (the event stream). Every input must come back
   as [Ok] or a located [Error] — never an escaping exception, never a
   hang. The same discipline covers the JSON codec every request, journal
   record and replication message goes through (an accepted value must
   also print back to itself), and the frame reader under the journal,
   the context snapshot and the replication stream (a damaged journal
   must read back as exactly its intact prefix). The corpus is
   deterministic (seeded {!Xsact_util.Prng}), so a failure reproduces
   bit-for-bit; [XSACT_FUZZ_ITERS] scales the budget (CI runs a bigger
   one than the default). *)

module Prng = Xsact_util.Prng
module Json = Xsact_server.Json
module Journal = Xsact_persist.Journal

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
    ]
