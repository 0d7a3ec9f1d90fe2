let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let lowercase_ascii_words s =
  let n = String.length s in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := String.lowercase_ascii (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    if is_word_char s.[i] then Buffer.add_char buf s.[i] else flush ()
  done;
  flush ();
  List.rev !out

let slug s =
  String.concat "-" (lowercase_ascii_words s)

let pad_right s w =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let truncate_middle s w =
  let n = String.length s in
  if n <= w then s
  else if w <= 3 then String.sub s 0 w
  else
    let keep = w - 3 in
    let left = (keep + 1) / 2 in
    let right = keep - left in
    String.sub s 0 left ^ "..." ^ String.sub s (n - right) right

let capitalize_words s =
  String.concat " "
    (List.map String.capitalize_ascii (String.split_on_char ' ' s))

let join_nonempty sep parts =
  String.concat sep (List.filter (fun p -> p <> "") parts)

let contains_substring haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i =
      if i + nn > hn then false
      else if String.sub haystack i nn = needle then true
      else at (i + 1)
    in
    at 0
