(** Streaming (SAX-style) XML parser.

    The event core of the XML substrate: scans a document left to right and
    hands each markup event to a fold function, without ever materializing a
    tree. {!Xml_parse} builds its DOM on top of this module; large corpora
    can be scanned (counted, filtered, indexed) in constant memory via
    {!fold}.

    Well-formedness is enforced during the scan: mismatched or unterminated
    tags, bad entities, duplicate attributes, content after the root — all
    the failures {!Xml_parse} reports — surface here as located errors.
    Whitespace-only text is reported like any other text; policy (e.g.
    dropping formatting whitespace) belongs to consumers. *)

type position = { line : int; col : int }
(** 1-based line and column. *)

type error = { position : position; message : string }

val error_to_string : error -> string
(** ["line L, column C: message"]. *)

type event =
  | Start_element of Xml.name * Xml.attribute list
  | End_element of Xml.name
  | Text of string  (** character data, entities decoded; may be
                        whitespace-only *)
  | Cdata of string
  | Comment of string
  | Pi of string * string
      (** processing instructions, including any prolog XML declaration and
          instructions after the root *)

val fold :
  string -> init:'a -> f:('a -> event -> 'a) -> ('a, error) result
(** [fold src ~init ~f] scans [src], threading [f] through every event in
    document order. Exactly one root element is required; DOCTYPE
    declarations are skipped silently. *)

val events : string -> (event list, error) result
(** Materialize the event stream (tests, small inputs). *)
