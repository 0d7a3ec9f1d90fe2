type ftype = { entity : string; attribute : string }
type t = { ftype : ftype; value : string }

let make ~entity ~attribute ~value = { ftype = { entity; attribute }; value }
let ftype f = f.ftype

let compare_ftype a b =
  let c = String.compare a.entity b.entity in
  if c <> 0 then c else String.compare a.attribute b.attribute

let compare a b =
  let c = compare_ftype a.ftype b.ftype in
  if c <> 0 then c else String.compare a.value b.value

let equal a b = compare a b = 0
let equal_ftype a b = compare_ftype a b = 0

let ftype_to_string t = t.entity ^ "." ^ t.attribute
let to_string f = ftype_to_string f.ftype ^ " = " ^ f.value


module Ftype_map = Map.Make (struct
  type t = ftype

  let compare = compare_ftype
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
