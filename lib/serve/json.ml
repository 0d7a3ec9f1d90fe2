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

(* A tiny cursor over the input string. *)
type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got ->
    parse_error c.pos (Printf.sprintf "expected %C, found %C" ch got)
  | None -> parse_error c.pos (Printf.sprintf "expected %C, found end" ch)

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
      | Some ('0' .. '9' as ch) -> Char.code ch - Char.code '0'
      | Some ('a' .. 'f' as ch) -> Char.code ch - Char.code 'a' + 10
      | Some ('A' .. 'F' as ch) -> Char.code ch - Char.code 'A' + 10
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

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error c.pos "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance c;
        add_utf8 buf (parse_hex4 c);
        go ()
      | _ -> parse_error c.pos "bad escape")
    | Some ch when Char.code ch < 0x20 ->
      parse_error c.pos "raw control character in string"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let integral = ref true in
  if peek c = Some '-' then advance c;
  let digits () =
    let saw = ref false in
    let rec go () =
      match peek c with
      | Some '0' .. '9' ->
        saw := true;
        advance c;
        go ()
      | _ -> ()
    in
    go ();
    if not !saw then parse_error c.pos "expected digit"
  in
  digits ();
  if peek c = Some '.' then begin
    integral := false;
    advance c;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    integral := false;
    advance c;
    (match peek c with Some ('+' | '-') -> advance c | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if !integral then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of int range *)
  else Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error c.pos "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [ parse_value c ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items := parse_value c :: !items;
          go ()
        | Some ']' -> advance c
        | _ -> parse_error c.pos "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let name = parse_string_body c in
        skip_ws c;
        expect c ':';
        (name, parse_value c)
      in
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance c
        | _ -> parse_error c.pos "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some ch -> parse_error c.pos (Printf.sprintf "unexpected %C" ch)

let of_string src =
  let c = { src; pos = 0 } in
  match parse_value c with
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
