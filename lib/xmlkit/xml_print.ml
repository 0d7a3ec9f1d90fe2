let escape buf ~quot s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let add_attrs buf attrs =
  List.iter
    (fun (name, value) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      Buffer.add_string buf "=\"";
      escape buf ~quot:true value;
      Buffer.add_char buf '"')
    attrs

let add_cdata buf s =
  (* A literal "]]>" inside CDATA must be split across two sections. *)
  Buffer.add_string buf "<![CDATA[";
  let parts = ref [] in
  let rec split s =
    match String.index_opt s ']' with
    | Some i
      when i + 2 < String.length s && s.[i + 1] = ']' && s.[i + 2] = '>' ->
      parts := String.sub s 0 (i + 2) :: !parts;
      split (String.sub s (i + 2) (String.length s - i - 2))
    | _ -> parts := s :: !parts
  in
  split s;
  let parts = List.rev !parts in
  List.iteri
    (fun i part ->
      if i > 0 then Buffer.add_string buf "]]><![CDATA[";
      Buffer.add_string buf part)
    parts;
  Buffer.add_string buf "]]>"

let rec add_node buf node =
  match node with
  | Xml.Text s -> escape buf ~quot:false s
  | Xml.Cdata s -> add_cdata buf s
  | Xml.Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Xml.Pi (target, body) ->
    Buffer.add_string buf "<?";
    Buffer.add_string buf target;
    if body <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf body
    end;
    Buffer.add_string buf "?>"
  | Xml.Element e -> add_element buf e

and add_element buf (e : Xml.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  add_attrs buf e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
    Buffer.add_char buf '>';
    List.iter (add_node buf) children;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.tag;
    Buffer.add_char buf '>'

let node_to_string node =
  let buf = Buffer.create 256 in
  add_node buf node;
  Buffer.contents buf

let xml_decl = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"

let to_string ?(decl = true) (doc : Xml.document) =
  let buf = Buffer.create 1024 in
  if decl then Buffer.add_string buf xml_decl;
  add_element buf doc.root;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let only_text children =
  List.for_all (function Xml.Text _ | Xml.Cdata _ -> true | _ -> false) children

let has_text children =
  List.exists (function Xml.Text _ | Xml.Cdata _ -> true | _ -> false) children

let rec add_pretty buf ~indent ~level (node : Xml.node) =
  let pad = String.make (indent * level) ' ' in
  Buffer.add_string buf pad;
  (match node with
  | Xml.Element e when e.children = [] ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    Buffer.add_string buf "/>"
  | Xml.Element e when only_text e.children || has_text e.children ->
    (* One line: pure-text content stays readable; mixed content must stay
       compact so no significant whitespace is invented. *)
    add_element buf e
  | Xml.Element e ->
    Buffer.add_char buf '<';
    Buffer.add_string buf e.tag;
    add_attrs buf e.attrs;
    Buffer.add_string buf ">\n";
    List.iter
      (fun c ->
        add_pretty buf ~indent ~level:(level + 1) c;
        Buffer.add_char buf '\n')
      e.children;
    Buffer.add_string buf pad;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.tag;
    Buffer.add_char buf '>'
  | other -> add_node buf other)

let to_string_pretty ?(decl = true) ?(indent = 2) (doc : Xml.document) =
  let buf = Buffer.create 4096 in
  if decl then Buffer.add_string buf xml_decl;
  add_pretty buf ~indent ~level:0 (Xml.Element doc.root);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file path doc =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string_pretty doc))
