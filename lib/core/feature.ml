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

module Strings = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Written by the boot column pass and by [Result_profile.make], both of
   which may run on request threads; read by no request-time path, which
   finds its ids in the corpus columns and the profiles. *)
let table = Strings.create 4096
let lock = Mutex.create ()

let symbol s =
  Mutex.protect lock (fun () ->
      match Strings.find table s with
      | id -> id
      | exception Not_found ->
        let id = Strings.length table in
        (* type keys pack two symbols into one int, 31 bits each *)
        if id lsr 31 <> 0 then failwith "Feature.symbol: table full";
        Strings.add table s id;
        id)
