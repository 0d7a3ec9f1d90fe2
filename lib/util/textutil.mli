(** Small string utilities shared across the code base. *)

val lowercase_ascii_words : string -> string list
(** [lowercase_ascii_words s] splits [s] into maximal runs of ASCII letters
    and digits, lowercased. This is the keyword tokenizer used by both the
    index and query sides of the search engine. *)

val slug : string -> string
(** [slug s] lowercases [s] and replaces non-alphanumeric runs by ['-'];
    used for stable identifiers in generated datasets. *)

val pad_right : string -> int -> string
(** [pad_right s w] pads [s] with spaces to width [w] (UTF-8-naive: counts
    bytes, which is fine for the ASCII output we produce). *)

val truncate_middle : string -> int -> string
(** [truncate_middle s w] shortens [s] to at most [w] bytes, replacing the
    middle with ["..."] when needed. *)

val capitalize_words : string -> string
(** [capitalize_words s] uppercases the first letter of each space-separated
    word. *)

val join_nonempty : string -> string list -> string
(** [join_nonempty sep parts] concatenates the non-empty strings of [parts]
    with [sep]. *)

val contains_substring : string -> string -> bool
(** [contains_substring haystack needle] is naive substring search;
    [needle = ""] is [true]. *)
