type mode = Full | Matched_entities | Attributes_only

let mode_of_string = function
  | "full" -> Some Full
  | "matched" -> Some Matched_entities
  | "attributes" -> Some Attributes_only
  | _ -> None

let matches ~keywords e =
  match keywords with
  | [] -> false
  | _ ->
    (* Conjunctive, like the search semantics: the subtree must contain
       every keyword (a men's bicycle is not a result for "men jackets"). *)
    let pending = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace pending k ()) keywords;
    let rec go (e : Xml.element) =
      if Hashtbl.length pending > 0 then begin
        List.iter (Hashtbl.remove pending) (Token.element_tokens e);
        List.iter
          (function Xml.Element c -> go c | _ -> ())
          e.Xml.children
      end
    in
    go e;
    Hashtbl.length pending = 0

let rec prune_matched ~categories ~keywords (e : Xml.element) =
  let children =
    List.filter_map
      (fun node ->
        match node with
        | Xml.Element c ->
          if Node_category.is_entity categories c.Xml.tag then
            if matches ~keywords c then
              Some (Xml.Element (prune_matched ~categories ~keywords c))
            else None
          else Some (Xml.Element (prune_matched ~categories ~keywords c))
        | other -> Some other)
      e.Xml.children
  in
  { e with Xml.children }

let rec prune_attributes ~categories (e : Xml.element) =
  let children =
    List.filter_map
      (fun node ->
        match node with
        | Xml.Element c -> begin
          match Node_category.category categories c.Xml.tag with
          | Node_category.Entity -> None
          | Node_category.Attribute -> Some (Xml.Element c)
          | Node_category.Connection ->
            Some (Xml.Element (prune_attributes ~categories c))
        end
        | other -> Some other)
      e.Xml.children
  in
  { e with Xml.children }

let prune ~categories ~keywords mode e =
  match mode with
  | Full -> e
  | Attributes_only -> prune_attributes ~categories e
  | Matched_entities ->
    let pruned = prune_matched ~categories ~keywords e in
    (* If pruning removed every nested entity because the matches all live
       in the root's own attributes, fall back to the full subtree. *)
    let has_entity el =
      let found = ref false in
      Xml.iter_elements
        (fun c ->
          if c != el && Node_category.is_entity categories c.Xml.tag then
            found := true)
        el;
      !found
    in
    if has_entity e && not (has_entity pruned) then e else pruned
