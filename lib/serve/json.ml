type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- Printer ----------------------------------------------------------- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let shortest_g ~digits f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
  in
  go digits

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else shortest_g ~digits:12 f

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun k item ->
        if k > 0 then Buffer.add_char buf ',';
        print_into buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun k (name, value) ->
        if k > 0 then Buffer.add_char buf ',';
        escape_into buf name;
        Buffer.add_char buf ':';
        print_into buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_into buf v;
  Buffer.contents buf

(* ---- Parser ------------------------------------------------------------ *)

exception Parse_error of int * string

let parse_error pos msg = raise (Parse_error (pos, msg))

let max_depth = 512

(* A tiny cursor over the input string. *)
type cursor = { src : string; mutable pos : int }

let at_end c = c.pos >= String.length c.src

(* The byte under the cursor, or '\000' at the end of input. A bare char,
   not a [char option], so looking ahead allocates nothing. A NUL byte
   reads the same as the end, so the sites whose error differs there ask
   [at_end] first. *)
let peek c =
  if c.pos < String.length c.src then String.unsafe_get c.src c.pos
  else '\000'

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  if at_end c then
    parse_error c.pos (Printf.sprintf "expected %C, found end" ch)
  else
    let got = peek c in
    if got = ch then advance c
    else parse_error c.pos (Printf.sprintf "expected %C, found %C" ch got)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error c.pos (Printf.sprintf "invalid literal (expected %s)" word)

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then
    parse_error c.pos "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> parse_error c.pos "bad hex digit in \\u escape"
    in
    advance c;
    v := (!v * 16) + d
  done;
  !v

(* Encode a code point as UTF-8 (surrogate pairs are not recombined —
   the escapes we emit never use them and lone values pass through as
   replacement-free 3-byte sequences, which round-trips our own output). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The rest of a string that contains an escape, decoded into [buf]. *)
let rec parse_escaped c buf =
  if at_end c then parse_error c.pos "unterminated string"
  else
    match peek c with
    | '"' ->
      advance c;
      Buffer.contents buf
    | '\\' ->
      advance c;
      (* at the end, peek's '\000' is a bad escape like any other *)
      (match peek c with
      | ('"' | '\\' | '/') as ch -> advance c; Buffer.add_char buf ch
      | 'n' -> advance c; Buffer.add_char buf '\n'
      | 't' -> advance c; Buffer.add_char buf '\t'
      | 'r' -> advance c; Buffer.add_char buf '\r'
      | 'b' -> advance c; Buffer.add_char buf '\b'
      | 'f' -> advance c; Buffer.add_char buf '\012'
      | 'u' ->
        advance c;
        add_utf8 buf (parse_hex4 c)
      | _ -> parse_error c.pos "bad escape");
      parse_escaped c buf
    | ch when Char.code ch < 0x20 ->
      parse_error c.pos "raw control character in string"
    | ch ->
      advance c;
      Buffer.add_char buf ch;
      parse_escaped c buf

(* The first offset at or after [i] that ends a run of plain string
   bytes: a quote, a backslash, a control character or the end. *)
let rec plain_run_end src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' -> i
    | ch when Char.code ch < 0x20 -> i
    | _ -> plain_run_end src (i + 1)

(* A string without escapes is one slice of the source; only an escape
   makes a buffer, seeded with the plain run before it. *)
let parse_string_body c =
  expect c '"';
  let start = c.pos in
  let stop = plain_run_end c.src start in
  c.pos <- stop;
  if peek c = '"' then begin
    advance c;
    String.sub c.src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf c.src start (stop - start);
    parse_escaped c buf
  end

(* Advance past a run of digits; a run of none is an error. *)
let digits c =
  let start = c.pos in
  while match peek c with '0' .. '9' -> true | _ -> false do
    advance c
  done;
  if c.pos = start then parse_error c.pos "expected digit"

let parse_number c =
  let start = c.pos in
  if peek c = '-' then advance c;
  digits c;
  let fraction = peek c = '.' in
  if fraction then begin
    advance c;
    digits c
  end;
  let exponent = match peek c with 'e' | 'E' -> true | _ -> false in
  if exponent then begin
    advance c;
    (match peek c with '+' | '-' -> advance c | _ -> ());
    digits c
  end;
  let text = String.sub c.src start (c.pos - start) in
  match if fraction || exponent then None else int_of_string_opt text with
  | Some i -> Int i
  | None ->
    (* a float, or an integer out of int range; one that overflows to
       infinity would print as "inf", which no parse accepts *)
    let f = float_of_string text in
    if Float.is_finite f then Float f
    else parse_error start "number out of range"

(* Step into an array or object: the parser recurses once per level, so
   the level is what is bounded. *)
let nest c depth =
  if depth = max_depth then
    parse_error c.pos (Printf.sprintf "nesting deeper than %d" max_depth);
  advance c;
  depth + 1

(* [depth] counts the arrays and objects around the value. *)
let rec parse_value c depth =
  skip_ws c;
  if at_end c then parse_error c.pos "unexpected end of input"
  else
    match peek c with
    | 'n' -> literal c "null" Null
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | '"' -> String (parse_string_body c)
    | '-' | '0' .. '9' -> parse_number c
    | '[' ->
      let depth = nest c depth in
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else List (parse_items c depth [ parse_value c depth ])
    | '{' ->
      let depth = nest c depth in
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else Obj (parse_fields c depth [ parse_field c depth ])
    | ch -> parse_error c.pos (Printf.sprintf "unexpected %C" ch)

(* The rest of an array after its first item, [acc] in reverse. *)
and parse_items c depth acc =
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    parse_items c depth (parse_value c depth :: acc)
  | ']' ->
    advance c;
    List.rev acc
  | _ -> parse_error c.pos "expected ',' or ']'"

and parse_field c depth =
  skip_ws c;
  let name = parse_string_body c in
  skip_ws c;
  expect c ':';
  (name, parse_value c depth)

(* The rest of an object after its first field, [acc] in reverse. *)
and parse_fields c depth acc =
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    parse_fields c depth (parse_field c depth :: acc)
  | '}' ->
    advance c;
    List.rev acc
  | _ -> parse_error c.pos "expected ',' or '}'"

let of_string src =
  let c = { src; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos < String.length src then
      Error (Printf.sprintf "byte %d: trailing content" c.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

(* ---- Accessors --------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None
let obj_fields = function Obj fields -> Some fields | _ -> None
