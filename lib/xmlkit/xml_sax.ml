type position = { line : int; col : int }
type error = { position : position; message : string }

let error_to_string e =
  Printf.sprintf "line %d, column %d: %s" e.position.line e.position.col
    e.message

type event =
  | Start_element of Xml.name * Xml.attribute list
  | End_element of Xml.name
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string

exception Parse_error of error

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let make_state src = { src; pos = 0; line = 1; bol = 0 }

let position_of st = { line = st.line; col = st.pos - st.bol + 1 }

let fail st message = raise (Parse_error { position = position_of st; message })

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (at_end st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let skip_n st n =
  for _ = 1 to n do
    advance st
  done

let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = prefix

let expect st prefix =
  if looking_at st prefix then skip_n st (String.length prefix)
  else fail st (Printf.sprintf "expected %S" prefix)

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_space st =
  while (not (at_end st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (at_end st)) && is_name_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Decode one entity reference; the cursor is on '&'. *)
let parse_entity st =
  expect st "&";
  let start = st.pos in
  let rec find () =
    if at_end st then fail st "unterminated entity reference"
    else if peek st = ';' then ()
    else if is_space (peek st) || peek st = '<' || peek st = '&' then
      fail st "malformed entity reference"
    else begin
      advance st;
      find ()
    end
  in
  find ();
  let body = String.sub st.src start (st.pos - start) in
  advance st (* ';' *);
  match body with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    let codepoint =
      if String.length body >= 2 && body.[0] = '#' then
        let digits = String.sub body 1 (String.length body - 1) in
        try
          if digits.[0] = 'x' || digits.[0] = 'X' then
            Some
              (int_of_string
                 ("0x" ^ String.sub digits 1 (String.length digits - 1)))
          else Some (int_of_string digits)
        with Failure _ -> None
      else None
    in
    (match codepoint with
    | Some cp when cp > 0 && cp <= 0x10FFFF ->
      (* UTF-8 encode. *)
      let buf = Buffer.create 4 in
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end;
      Buffer.contents buf
    | _ -> fail st (Printf.sprintf "unknown entity &%s;" body))

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then
    fail st "expected a quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    if at_end st then fail st "unterminated attribute value"
    else
      let c = peek st in
      if c = quote then advance st
      else if c = '&' then begin
        Buffer.add_string buf (parse_entity st);
        loop ()
      end
      else if c = '<' then fail st "'<' not allowed in attribute value"
      else begin
        Buffer.add_char buf c;
        advance st;
        loop ()
      end
  in
  loop ();
  Buffer.contents buf

let parse_attributes st =
  let rec loop acc =
    skip_space st;
    if is_name_start (peek st) then begin
      let name = parse_name st in
      skip_space st;
      expect st "=";
      skip_space st;
      let value = parse_attr_value st in
      if List.mem_assoc name acc then
        fail st (Printf.sprintf "duplicate attribute %S" name);
      loop ((name, value) :: acc)
    end
    else List.rev acc
  in
  loop []

let parse_until st terminator what =
  let start = st.pos in
  let tn = String.length terminator in
  let rec find () =
    if at_end st then fail st (Printf.sprintf "unterminated %s" what)
    else if looking_at st terminator then ()
    else begin
      advance st;
      find ()
    end
  in
  find ();
  let body = String.sub st.src start (st.pos - start) in
  skip_n st tn;
  body

let parse_comment st =
  expect st "<!--";
  Comment (parse_until st "-->" "comment")

let parse_cdata st =
  expect st "<![CDATA[";
  Cdata (parse_until st "]]>" "CDATA section")

let parse_pi st =
  expect st "<?";
  let target = parse_name st in
  skip_space st;
  let body = parse_until st "?>" "processing instruction" in
  Pi (target, String.trim body)

(* Character data run up to the next '<'. *)
let parse_text st =
  let buf = Buffer.create 32 in
  let rec loop () =
    if at_end st then ()
    else
      let c = peek st in
      if c = '<' then ()
      else if c = '&' then begin
        Buffer.add_string buf (parse_entity st);
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        advance st;
        loop ()
      end
  in
  loop ();
  Buffer.contents buf

let skip_doctype st =
  (* Skip to the matching '>' with one level of '[' ... ']' nesting. *)
  skip_n st (String.length "<!DOCTYPE");
  let depth = ref 0 in
  let rec scan () =
    if at_end st then fail st "unterminated DOCTYPE"
    else begin
      (match peek st with
      | '[' -> incr depth
      | ']' -> decr depth
      | '>' when !depth = 0 ->
        advance st;
        raise Exit
      | _ -> ());
      advance st;
      scan ()
    end
  in
  try scan () with Exit -> ()

(* Emit all events of the document through [f], threading [acc]. The element
   stack enforces nesting; prolog and epilog content is restricted to
   comments, PIs and whitespace. *)
let fold src ~init ~f =
  let st = make_state src in
  let acc = ref init in
  let emit e = acc := f !acc e in
  let stack = ref [] in
  let seen_root = ref false in
  let in_element () = !stack <> [] in
  try
    let rec loop () =
      if at_end st then begin
        match !stack with
        | tag :: _ -> fail st (Printf.sprintf "unterminated element <%s>" tag)
        | [] -> if not !seen_root then fail st "no root element"
      end
      else if looking_at st "<!--" then begin
        emit (parse_comment st);
        loop ()
      end
      else if looking_at st "<![CDATA[" then begin
        if not (in_element ()) then fail st "CDATA outside the root element";
        emit (parse_cdata st);
        loop ()
      end
      else if looking_at st "<?" then begin
        emit (parse_pi st);
        loop ()
      end
      else if looking_at st "<!DOCTYPE" then begin
        if !seen_root || in_element () then
          fail st "misplaced DOCTYPE declaration";
        skip_doctype st;
        loop ()
      end
      else if looking_at st "</" then begin
        skip_n st 2;
        let closing = parse_name st in
        skip_space st;
        expect st ">";
        (match !stack with
        | top :: rest ->
          if closing <> top then
            fail st
              (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing
                 top);
          emit (End_element closing);
          stack := rest
        | [] -> fail st (Printf.sprintf "unmatched closing tag </%s>" closing));
        loop ()
      end
      else if peek st = '<' then begin
        if not (is_name_start (peek2 st)) then fail st "malformed markup after '<'";
        if !seen_root && not (in_element ()) then
          fail st "content after the root element";
        advance st;
        let tag = parse_name st in
        let attrs = parse_attributes st in
        skip_space st;
        seen_root := true;
        if looking_at st "/>" then begin
          skip_n st 2;
          emit (Start_element (tag, attrs));
          emit (End_element tag)
        end
        else begin
          expect st ">";
          emit (Start_element (tag, attrs));
          stack := tag :: !stack
        end;
        loop ()
      end
      else begin
        let s = parse_text st in
        if in_element () then emit (Text s)
        else if not (String.for_all is_space s) then
          fail st
            (if !seen_root then "content after the root element"
             else "character data before the root element");
        loop ()
      end
    in
    loop ();
    Ok !acc
  with Parse_error e -> Error e

let events src =
  Result.map List.rev (fold src ~init:[] ~f:(fun acc e -> e :: acc))
