(** XML serialization.

    Inverse of {!Xml_parse}: [parse (to_string doc)] returns a document equal
    to [doc] for any tree built from the {!Xml} constructors (the printer
    escapes all markup-significant characters; qcheck tests pin the
    round-trip down). *)

val node_to_string : Xml.node -> string
(** Compact serialization of one node (no added whitespace). *)

val to_string : ?decl:bool -> Xml.document -> string
(** Compact serialization; [decl] (default [true]) prepends the XML
    declaration. *)

val to_string_pretty : ?decl:bool -> ?indent:int -> Xml.document -> string
(** Human-readable serialization: each element on its own line, children
    indented by [indent] spaces (default 2). Elements whose children are only
    text are kept on one line so that values stay readable. Mixed content is
    printed compactly to avoid injecting significant whitespace. *)

val to_file : string -> Xml.document -> unit
(** Write the pretty form to [path]. @raise Sys_error on I/O failure. *)
