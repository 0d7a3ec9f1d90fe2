type feat_info = { feature : Feature.t; count : int; value_id : int }

type type_info = {
  ftype : Feature.ftype;
  type_id : int;
  significance : int;
  total : int;
  features : feat_info array;
  counts : int array;
}

type entity_info = {
  entity : string;
  population : int;
  types : type_info array;
  classes : (int * int) array;
}

type t = {
  label : string;
  entities : entity_info array;
  type_index : (int * int) array;
  total_features : int;
  by_name : int array;
  by_type_id : int array;
}

let type_key ~entity ~attribute = (entity lsl 31) lor attribute

(* Stable sort, descending by [key]. Insertion sort on the short runs a
   profile is made of (most types hold one to three features), so the
   common case allocates nothing. *)
let sort_desc key a =
  let n = Array.length a in
  if n > 16 then Array.stable_sort (fun x y -> Int.compare (key y) (key x)) a
  else
    for i = 1 to n - 1 do
      let e = a.(i) in
      let k = key e in
      let j = ref (i - 1) in
      while !j >= 0 && key a.(!j) < k do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- e
    done

(* Sort a [[| id0; v0; id1; v1; ... |]] array of pairs ascending by id,
   in place: the int-keyed lookups of the pair build. Insertion sort on
   the short arrays a profile is made of. *)
let sort_pairs a =
  let n = Array.length a / 2 in
  if n > 16 then begin
    let idx = Array.init n Fun.id in
    Array.sort (fun x y -> Int.compare a.(2 * x) a.(2 * y)) idx;
    let b = Array.copy a in
    Array.iteri
      (fun k i ->
        a.(2 * k) <- b.(2 * i);
        a.((2 * k) + 1) <- b.((2 * i) + 1))
      idx
  end
  else
    for i = 1 to n - 1 do
      let id = a.(2 * i) and v = a.((2 * i) + 1) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(2 * !j) > id do
        a.((2 * !j) + 2) <- a.(2 * !j);
        a.((2 * !j) + 3) <- a.((2 * !j) + 1);
        decr j
      done;
      a.((2 * !j) + 2) <- id;
      a.((2 * !j) + 3) <- v
    done

let value_counts features =
  let a = Array.make (2 * Array.length features) 0 in
  Array.iteri
    (fun k fi ->
      a.(2 * k) <- fi.value_id;
      a.((2 * k) + 1) <- fi.count)
    features;
  sort_pairs a;
  a

let feature_count (fi : feat_info) = fi.count
let type_significance (ti : type_info) = ti.significance

let canonical ~label ~population ~type_ids (feats : feat_info array) =
  let n = Array.length feats in
  let entity_of k = type_ids.(k) lsr 31 in
  let new_type k = k = 0 || type_ids.(k) <> type_ids.(k - 1) in
  let num_types = ref 0 in
  for k = 0 to n - 1 do
    if new_type k then incr num_types
  done;
  let by_name = Array.make !num_types 0 in
  let named = ref 0 in
  let entities = ref [] in
  let k = ref 0 in
  while !k < n do
    (* one entity: its types in attribute order, each one run of [feats] *)
    let first = !k in
    let ent = entity_of first in
    let types = ref [] in
    while !k < n && entity_of !k = ent do
      let start = !k in
      incr k;
      while !k < n && not (new_type !k) do
        incr k
      done;
      let features = Array.sub feats start (!k - start) in
      sort_desc feature_count features;
      let total = Array.fold_left (fun acc fi -> acc + fi.count) 0 features in
      types :=
        {
          ftype = features.(0).feature.Feature.ftype;
          type_id = type_ids.(start);
          significance = features.(0).count;
          total;
          features;
          counts = value_counts features;
        }
        :: !types
    done;
    let in_name_order = Array.of_list (List.rev !types) in
    let types = Array.copy in_name_order in
    sort_desc type_significance types;
    (* where each type landed, in name order, as a global index *)
    Array.iter
      (fun ti ->
        let rec find i = if types.(i) == ti then i else find (i + 1) in
        by_name.(!named) <- find 0;
        incr named)
      in_name_order;
    let m = Array.length types in
    let classes = ref [] in
    let start = ref 0 in
    for i = 1 to m do
      if i = m || types.(i).significance <> types.(!start).significance then begin
        classes := (!start, i - !start) :: !classes;
        start := i
      end
    done;
    entities :=
      {
        entity = feats.(first).feature.Feature.ftype.Feature.entity;
        population = population first;
        types;
        classes = Array.of_list (List.rev !classes);
      }
      :: !entities
  done;
  let entities = Array.of_list (List.rev !entities) in
  (* [by_name] holds indices within each entity; shift them to global *)
  let type_index = Array.make !num_types (0, 0) in
  let by_type_id = Array.make (2 * !num_types) 0 in
  let g = ref 0 in
  Array.iteri
    (fun ei (e : entity_info) ->
      let base = !g in
      Array.iteri
        (fun ti (t : type_info) ->
          type_index.(base + ti) <- (ei, ti);
          by_type_id.(2 * (base + ti)) <- t.type_id;
          by_type_id.((2 * (base + ti)) + 1) <- base + ti;
          by_name.(base + ti) <- base + by_name.(base + ti))
        e.types;
      g := base + Array.length e.types)
    entities;
  sort_pairs by_type_id;
  { label; entities; type_index; total_features = n; by_name; by_type_id }

let make ~label ~populations features =
  List.iter
    (fun (f, count) ->
      if count <= 0 then
        invalid_arg
          (Printf.sprintf "Result_profile.make: non-positive count for %s"
             (Feature.to_string f)))
    features;
  List.iter
    (fun (entity, pop) ->
      if pop <= 0 then
        invalid_arg
          (Printf.sprintf "Result_profile.make: non-positive population for %s"
             entity))
    populations;
  (* String order, duplicates summed: the input [canonical] expects. *)
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Feature.compare a b) features
  in
  let rec sum acc = function
    | (f, c) :: (g, d) :: rest when Feature.equal f g -> sum acc ((g, c + d) :: rest)
    | x :: rest -> sum (x :: acc) rest
    | [] -> List.rev acc
  in
  let distinct = Array.of_list (sum [] sorted) in
  let feats =
    Array.map
      (fun ((f : Feature.t), count) ->
        { feature = f; count; value_id = Feature.symbol f.value })
      distinct
  in
  let type_ids =
    Array.map
      (fun ((f : Feature.t), _) ->
        type_key
          ~entity:(Feature.symbol f.ftype.entity)
          ~attribute:(Feature.symbol f.ftype.attribute))
      distinct
  in
  let population k =
    match List.assoc_opt feats.(k).feature.ftype.entity populations with
    | Some p -> p
    | None -> 1
  in
  canonical ~label ~population ~type_ids feats

let num_types t = Array.length t.type_index

let type_info t gi =
  let ei, ti = t.type_index.(gi) in
  t.entities.(ei).types.(ti)

let entity_index_of_type t gi = fst t.type_index.(gi)

let type_population t gi = t.entities.(fst t.type_index.(gi)).population

(* Binary search of the type's [(value_id, count)] pairs. A loop over
   refs, not a local closure: the pair build calls it once per probed
   feature, and must not allocate. *)
let count_of (ti : type_info) value_id =
  let pairs = ti.counts in
  let lo = ref 0 and hi = ref (Array.length pairs / 2) and found = ref 0 in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = pairs.(2 * mid) in
    if v = value_id then begin
      found := pairs.((2 * mid) + 1);
      lo := !hi
    end
    else if v < value_id then lo := mid + 1
    else hi := mid
  done;
  !found

let find_type t ftype =
  let n = num_types t in
  let rec scan gi =
    if gi >= n then None
    else if Feature.equal_ftype (type_info t gi).ftype ftype then Some gi
    else scan (gi + 1)
  in
  scan 0

let population t entity =
  let rec scan i =
    if i >= Array.length t.entities then 1
    else if t.entities.(i).entity = entity then t.entities.(i).population
    else scan (i + 1)
  in
  scan 0

let global_index t ~entity_index ~type_index =
  let base = ref 0 in
  for ei = 0 to entity_index - 1 do
    base := !base + Array.length t.entities.(ei).types
  done;
  !base + type_index

let types_seq t =
  Seq.init (num_types t) (fun gi -> (gi, type_info t gi))
