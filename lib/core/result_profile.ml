type feat_info = { feature : Feature.t; count : int }

type type_info = {
  ftype : Feature.ftype;
  significance : int;
  total : int;
  features : feat_info array;
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
}

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
  (* Sum duplicate features. *)
  let counts =
    List.fold_left
      (fun acc (f, count) ->
        Feature.Map.update f
          (function None -> Some count | Some c -> Some (c + count))
          acc)
      Feature.Map.empty features
  in
  (* Group by feature type. *)
  let by_type =
    Feature.Map.fold
      (fun f count acc ->
        Feature.Ftype_map.update (Feature.ftype f)
          (function
            | None -> Some [ { feature = f; count } ]
            | Some l -> Some ({ feature = f; count } :: l))
          acc)
      counts Feature.Ftype_map.empty
  in
  let type_list =
    Feature.Ftype_map.fold
      (fun ftype feats acc ->
        let features =
          List.sort
            (fun a b ->
              let c = Int.compare b.count a.count in
              if c <> 0 then c
              else String.compare a.feature.Feature.value b.feature.Feature.value)
            feats
          |> Array.of_list
        in
        let significance = features.(0).count in
        let total = Array.fold_left (fun acc fi -> acc + fi.count) 0 features in
        { ftype; significance; total; features } :: acc)
      by_type []
  in
  (* Group types by entity. *)
  let by_entity : (string, type_info list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ti ->
      let entity = ti.ftype.Feature.entity in
      match Hashtbl.find_opt by_entity entity with
      | Some l -> l := ti :: !l
      | None -> Hashtbl.add by_entity entity (ref [ ti ]))
    type_list;
  let entity_names =
    Hashtbl.fold (fun name _ acc -> name :: acc) by_entity []
    |> List.sort String.compare
  in
  let pop_of entity =
    match List.assoc_opt entity populations with Some p -> p | None -> 1
  in
  let entities =
    List.map
      (fun entity ->
        let types =
          List.sort
            (fun a b ->
              let c = Int.compare b.significance a.significance in
              if c <> 0 then c
              else
                String.compare a.ftype.Feature.attribute
                  b.ftype.Feature.attribute)
            !(Hashtbl.find by_entity entity)
          |> Array.of_list
        in
        (* Runs of equal significance. *)
        let classes = ref [] in
        let n = Array.length types in
        let start = ref 0 in
        for i = 1 to n do
          if i = n || types.(i).significance <> types.(!start).significance
          then begin
            classes := (!start, i - !start) :: !classes;
            start := i
          end
        done;
        {
          entity;
          population = pop_of entity;
          types;
          classes = Array.of_list (List.rev !classes);
        })
      entity_names
    |> Array.of_list
  in
  let type_index =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun ei (e : entity_info) ->
              Array.mapi (fun ti _ -> (ei, ti)) e.types)
            entities))
  in
  let total_features =
    Array.fold_left
      (fun acc (e : entity_info) ->
        Array.fold_left
          (fun acc (ti : type_info) -> acc + Array.length ti.features)
          acc e.types)
      0 entities
  in
  { label; entities; type_index; total_features }

let num_types t = Array.length t.type_index

let type_info t gi =
  let ei, ti = t.type_index.(gi) in
  t.entities.(ei).types.(ti)

let entity_index_of_type t gi = fst t.type_index.(gi)

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
