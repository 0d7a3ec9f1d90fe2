(** A minimal JSON codec — the serve layer's wire format.

    The container ships no JSON library, and the API surface is small, so
    this is a from-scratch value type, printer and recursive-descent
    parser. Numbers parse to [Int] when they are integral literals
    (no fraction, no exponent) and to [Float] otherwise; the printer is
    deterministic (object fields in construction order), which is what
    makes cached response bodies byte-identical. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace), RFC 8259 string
    escaping, UTF-8 passed through verbatim. A finite [Float] prints in
    a form that parses back to the same float: integral values below
    1e15 as ["%.1f"], the rest as [shortest_g ~digits:12]. *)

val shortest_g : digits:int -> float -> string
(** [shortest_g ~digits f] is [Printf.sprintf "%.*g" p f] for the
    smallest [p >= digits] (at most 17) whose text reads back as [f] —
    today's [%.<digits>g] text wherever that already round-trips. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts (512, as
    [Xml_parse.default_max_depth] for XML). Nothing this program writes
    nests more than a few levels. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error, and so are
    a number that overflows a float and nesting deeper than
    {!max_depth} — refused at the bracket that would open level 513, in
    stack space bounded by the limit. The message carries a byte
    offset. *)

(** {1 Accessors} — total, option-returning *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or a missing field. *)

val to_int : t -> int option
(** [Int] directly; [Float] only when integral. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val obj_fields : t -> (string * t) list option
