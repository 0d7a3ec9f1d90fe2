type t = { profile : Result_profile.t; q : int array }

let empty profile =
  { profile; q = Array.make (Result_profile.num_types profile) 0 }

let profile d = d.profile

let q d gi = d.q.(gi)

let max_q d gi =
  Array.length (Result_profile.type_info d.profile gi).features

let set_q d gi value =
  if gi < 0 || gi >= Array.length d.q then
    invalid_arg "Dfs.set_q: type index out of range";
  if value < 0 || value > max_q d gi then
    invalid_arg "Dfs.set_q: q out of range";
  let q = Array.copy d.q in
  q.(gi) <- value;
  { d with q }

let size d = Array.fold_left ( + ) 0 d.q

let selected_types d =
  let acc = ref [] in
  for gi = Array.length d.q - 1 downto 0 do
    if d.q.(gi) > 0 then acc := gi :: !acc
  done;
  !acc

let features d =
  List.concat_map
    (fun gi ->
      let info = Result_profile.type_info d.profile gi in
      List.init d.q.(gi) (fun k ->
          let fi = info.features.(k) in
          (fi.Result_profile.feature, fi.Result_profile.count)))
    (selected_types d)

(* Closure within one entity: q is indexed globally; the entity's types
   occupy a contiguous global range in significance-descending order. *)
let entity_range profile entity_index =
  let base =
    Result_profile.global_index profile ~entity_index ~type_index:0
  in
  let count =
    Array.length (Result_profile.(profile.entities.(entity_index).types))
  in
  (base, count)

let closure_ok d =
  let profile = d.profile in
  let ok = ref true in
  Array.iteri
    (fun ei (e : Result_profile.entity_info) ->
      let base, count = entity_range profile ei in
      (* Minimum significance among selected types of this entity. *)
      let min_sig = ref max_int in
      for k = 0 to count - 1 do
        if d.q.(base + k) > 0 then
          min_sig := min !min_sig e.types.(k).significance
      done;
      if !min_sig < max_int then
        for k = 0 to count - 1 do
          if e.types.(k).significance > !min_sig && d.q.(base + k) = 0 then
            ok := false
        done)
    profile.entities;
  !ok

let is_valid ~limit d = size d <= limit && closure_ok d

let can_open d gi =
  if d.q.(gi) > 0 then true
  else
    let profile = d.profile in
    let ei = Result_profile.entity_index_of_type profile gi in
    let e = profile.entities.(ei) in
    let base, count = entity_range profile ei in
    let my_sig = (Result_profile.type_info profile gi).significance in
    let ok = ref true in
    for k = 0 to count - 1 do
      if
        e.types.(k).significance > my_sig
        && d.q.(base + k) = 0
      then ok := false
    done;
    !ok

let can_close d gi =
  if d.q.(gi) = 0 then true
  else
    let profile = d.profile in
    let ei = Result_profile.entity_index_of_type profile gi in
    let e = profile.entities.(ei) in
    let base, count = entity_range profile ei in
    let my_sig = (Result_profile.type_info profile gi).significance in
    let ok = ref true in
    for k = 0 to count - 1 do
      if
        e.types.(k).significance < my_sig
        && d.q.(base + k) > 0
      then ok := false
    done;
    !ok

let of_q_array profile q =
  if Array.length q <> Result_profile.num_types profile then
    invalid_arg "Dfs.of_q_array: length mismatch";
  let d = { profile; q = Array.copy q } in
  Array.iteri
    (fun gi v ->
      if v < 0 || v > max_q d gi then
        invalid_arg "Dfs.of_q_array: q out of range")
    q;
  d

let to_q_array d = Array.copy d.q

let equal a b = a.profile == b.profile && a.q = b.q

