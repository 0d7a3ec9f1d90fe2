(* Flatten an attribute element into (attribute-path, value).

   Chain rule: while the current element has no immediate text and exactly
   one element child, append the child's tag to the path and descend. The
   final element's immediate text is the value; a valueless presence flag
   becomes "yes"; an element with several children and no text contributes
   its whole text content. *)
let flatten (e : Xml.element) =
  let rec go path (cur : Xml.element) =
    let text = Xml.immediate_text cur in
    if text <> "" then (List.rev path, text)
    else
      match Xml.children_elements cur with
      | [ only ] -> go (only.Xml.tag :: path) only
      | [] -> (List.rev path, "yes")
      | _ :: _ :: _ ->
        let content = Xml.text_content cur in
        (List.rev path, if content = "" then "yes" else content)
  in
  let path, value = go [ e.Xml.tag ] e in
  (String.concat ":" path, value)

let text_fallback (root : Xml.element) =
  let content = Xml.text_content root in
  if content = "" then "yes" else content

let extract ~categories ~label (root : Xml.element) =
  let feature_counts : (Feature.t, int) Hashtbl.t = Hashtbl.create 64 in
  let populations : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump_population tag =
    let c = try Hashtbl.find populations tag with Not_found -> 0 in
    Hashtbl.replace populations tag (c + 1)
  in
  let add_feature ~entity ~attribute ~value =
    let f = Feature.make ~entity ~attribute ~value in
    let c = try Hashtbl.find feature_counts f with Not_found -> 0 in
    Hashtbl.replace feature_counts f (c + 1)
  in
  let add_xml_attrs ~entity (e : Xml.element) =
    List.iter
      (fun (name, value) ->
        add_feature ~entity ~attribute:(e.Xml.tag ^ "@" ^ name) ~value)
      e.Xml.attrs
  in
  let rec walk ~entity (e : Xml.element) =
    List.iter
      (fun node ->
        match node with
        | Xml.Element c -> begin
          match Node_category.category categories c.Xml.tag with
          | Node_category.Entity ->
            bump_population c.Xml.tag;
            add_xml_attrs ~entity:c.Xml.tag c;
            walk ~entity:c.Xml.tag c
          | Node_category.Connection ->
            add_xml_attrs ~entity c;
            walk ~entity c
          | Node_category.Attribute ->
            let attribute, value = flatten c in
            add_feature ~entity ~attribute ~value;
            add_xml_attrs ~entity c
        end
        | Xml.Text _ | Xml.Cdata _ | Xml.Comment _ | Xml.Pi _ -> ())
      e.Xml.children
  in
  let root_entity = root.Xml.tag in
  bump_population root_entity;
  add_xml_attrs ~entity:root_entity root;
  walk ~entity:root_entity root;
  if Hashtbl.length feature_counts = 0 then
    add_feature ~entity:root_entity ~attribute:"text" ~value:(text_fallback root);
  let features =
    Hashtbl.fold (fun f count acc -> (f, count) :: acc) feature_counts []
  in
  let pops =
    Hashtbl.fold (fun tag count acc -> (tag, count) :: acc) populations []
  in
  Result_profile.make ~label ~populations:pops features

(* {2 Boot-time columns}

   One int per node: (tag lsl 32) lor (has-XML-attributes lsl 31) lor
   (key + 1), where [tag] ranks the node's tag and [key] its flattened
   (path, value) pair among the corpus's own, both in string order (key 0
   marks a node that is not an attribute). Ranking in string order is
   what lets a scan sort its features by int and still produce the
   canonical order. XML attributes are rare, so their ("tag@name", value)
   keys sit in a side table. *)

type columns = {
  tree : Doctree.t;
  nodes : int array;
  tag_name : string array;
  tag_sym : int array;
  tag_cat : Node_category.category array;
  key_path : string array;
  key_value : string array;
  key_path_sym : int array;
  key_value_sym : int array;
  xml_attrs : (int, int array) Hashtbl.t;
}

let tag_shift = 32
let xml_bit = 1 lsl 31
let key_mask = xml_bit - 1

module Strings = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Dense ids in order of first sight, then ranks in string order. Each
   value gets one id: equal keys reached by different routes (a leaf whose
   tag holds ':' and a flattened wrapper chain) meet in the key table. *)
type 'a dict = {
  find : 'a -> int;
  add : 'a -> int -> unit;
  mutable seen : 'a list;  (* newest first *)
  mutable size : int;
}

let dict find add = { find; add; seen = []; size = 0 }

let id_of d x =
  match d.find x with
  | id -> id
  | exception Not_found ->
    let id = d.size in
    d.add x id;
    d.seen <- x :: d.seen;
    d.size <- id + 1;
    id

(* [(sorted, rank)]: the values in [cmp] order, and each first-sight id's
   position in it. *)
let ranked cmp d =
  let by_id = Array.of_list (List.rev d.seen) in
  let order = Array.init (Array.length by_id) Fun.id in
  Array.sort (fun a b -> cmp by_id.(a) by_id.(b)) order;
  let rank = Array.make (Array.length by_id) 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  (Array.map (fun id -> by_id.(id)) order, rank)

let columns engine =
  let tree = Search.doctree engine and cats = Search.categories engine in
  let table = Doctree.nodes tree in
  let n = Array.length table in
  let tags =
    let t = Strings.create 64 in
    dict (Strings.find t) (Strings.add t)
  and keys =
    let t = Hashtbl.create 4096 in
    dict (Hashtbl.find t) (Hashtbl.add t)
  in
  (* by first-sight tag id: its category, and its leaves' keys by text —
     a leaf's path is its tag, so its key needs only the text hashed *)
  let cat_by_id = ref [||] and leaves = ref [||] in
  let xml_attrs = Hashtbl.create 0 in
  let nodes =
    Array.map
      (fun (node : Doctree.node) ->
        let tag = id_of tags node.tag in
        if tag >= Array.length !cat_by_id then begin
          cat_by_id :=
            Array.append !cat_by_id [| Node_category.category cats node.tag |];
          leaves := Array.append !leaves [| Strings.create 16 |]
        end;
        let key =
          match !cat_by_id.(tag) with
          | Node_category.Attribute when node.text <> "" -> (
            let by_text = !leaves.(tag) in
            match Strings.find by_text node.text with
            | key -> 1 + key
            | exception Not_found ->
              let key = id_of keys (node.tag, node.text) in
              Strings.add by_text node.text key;
              1 + key)
          | Node_category.Attribute -> 1 + id_of keys (flatten node.element)
          | Node_category.Entity | Node_category.Connection -> 0
        in
        let xml =
          match node.element.Xml.attrs with
          | [] -> 0
          | attrs ->
            Hashtbl.add xml_attrs node.id
              (Array.of_list
                 (List.map
                    (fun (name, value) ->
                      id_of keys (node.tag ^ "@" ^ name, value))
                    attrs));
            xml_bit
        in
        (tag lsl tag_shift) lor xml lor key)
      table
  in
  let tag_name, tag_rank = ranked String.compare tags in
  let key_sorted, key_rank =
    ranked
      (fun (p, v) (q, w) ->
        let c = String.compare p q in
        if c <> 0 then c else String.compare v w)
      keys
  in
  for id = 0 to n - 1 do
    let v = nodes.(id) in
    let key = v land key_mask in
    nodes.(id) <-
      (tag_rank.(v lsr tag_shift) lsl tag_shift)
      lor (v land xml_bit)
      lor (if key = 0 then 0 else 1 + key_rank.(key - 1))
  done;
  Hashtbl.filter_map_inplace
    (fun _ ks -> Some (Array.map (fun k -> key_rank.(k)) ks))
    xml_attrs;
  let tag_cat = Array.make (Array.length tag_name) Node_category.Attribute in
  Array.iteri (fun id c -> tag_cat.(tag_rank.(id)) <- c) !cat_by_id;
  let key_path = Array.map fst key_sorted
  and key_value = Array.map snd key_sorted in
  {
    tree;
    nodes;
    tag_name;
    tag_sym = Array.map Feature.symbol tag_name;
    tag_cat;
    key_path;
    key_value;
    key_path_sym = Array.map Feature.symbol key_path;
    key_value_sym = Array.map Feature.symbol key_value;
    xml_attrs;
  }

(* {2 The interval scan}

   A small open-addressing counter over packed (entity tag, slot) ints:
   slot 0 counts the entity's population, slot key + 1 one feature. Load
   stays at most one half; a result's distinct features are a few dozen,
   so the first table seldom grows. *)

type counter = {
  mutable slots : int array;  (* key, or -1 *)
  mutable counts : int array;
  mutable shift : int;  (* 63 - log2 (capacity) *)
  mutable size : int;
}

let counter () =
  { slots = Array.make 64 (-1); counts = Array.make 64 0; shift = 57; size = 0 }

(* Fibonacci hashing: the product's top bits *)
let home c key = (key * 0x2545F4914F6CDD1D) lsr c.shift

(* Loops over refs rather than local closures: the scan bumps once per
   node it visits and must not allocate doing so. *)
let rec add c key n =
  let mask = Array.length c.slots - 1 in
  let i = ref (home c key) in
  while c.slots.(!i) <> key && c.slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  if c.slots.(!i) = key then c.counts.(!i) <- c.counts.(!i) + n
  else if 2 * (c.size + 1) > Array.length c.slots then begin
    grow c;
    add c key n
  end
  else begin
    c.slots.(!i) <- key;
    c.counts.(!i) <- n;
    c.size <- c.size + 1
  end

and grow c =
  let slots = c.slots and counts = c.counts in
  c.slots <- Array.make (2 * Array.length slots) (-1);
  c.counts <- Array.make (2 * Array.length slots) 0;
  c.shift <- c.shift - 1;
  c.size <- 0;
  Array.iteri (fun i key -> if key >= 0 then add c key counts.(i)) slots

let bump c key = add c key 1

let count c key =
  let mask = Array.length c.slots - 1 in
  let i = ref (home c key) in
  while c.slots.(!i) <> key && c.slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  if c.slots.(!i) = key then c.counts.(!i) else 0

let scan cols ~label root =
  let stop = Doctree.subtree_end cols.tree root in
  let c = counter () in
  let xml_attrs entity id =
    if cols.nodes.(id) land xml_bit <> 0 then
      Array.iter
        (fun key -> bump c ((entity lsl tag_shift) lor (key + 1)))
        (Hashtbl.find cols.xml_attrs id)
  in
  let enter tag id =
    bump c (tag lsl tag_shift);
    xml_attrs tag id
  in
  (* the children of the node whose subtree ends at [stop], from [id] on,
     under [entity]: the DOM walk's rules, over ids *)
  let rec walk entity id stop =
    if id < stop then begin
      let v = cols.nodes.(id) in
      let tag = v lsr tag_shift in
      match cols.tag_cat.(tag) with
      | Node_category.Entity ->
        enter tag id;
        let next = Doctree.subtree_end cols.tree id in
        walk tag (id + 1) next;
        walk entity next stop
      | Node_category.Connection ->
        xml_attrs entity id;
        walk entity (id + 1) stop
      | Node_category.Attribute ->
        bump c ((entity lsl tag_shift) lor (v land key_mask));
        xml_attrs entity id;
        walk entity (Doctree.subtree_end cols.tree id) stop
    end
  in
  let root_tag = cols.nodes.(root) lsr tag_shift in
  enter root_tag root;
  walk root_tag (root + 1) stop;
  (* population entries sort first in their entity's run (slot 0) *)
  let entries = Array.make c.size 0 in
  let k = ref 0 in
  Array.iter
    (fun key ->
      if key >= 0 then begin
        entries.(!k) <- key;
        incr k
      end)
    c.slots;
  Array.sort Int.compare entries;
  let slot e = e land ((1 lsl tag_shift) - 1) in
  let nfeats =
    Array.fold_left (fun acc e -> if slot e = 0 then acc else acc + 1) 0 entries
  in
  if nfeats = 0 then
    let entity = cols.tag_name.(root_tag) in
    Result_profile.make ~label
      ~populations:[ (entity, count c (root_tag lsl tag_shift)) ]
      [
        ( Feature.make ~entity ~attribute:"text"
            ~value:(text_fallback (Doctree.node cols.tree root).element),
          1 );
      ]
  else begin
    let fkeys = Array.make nfeats 0 in
    let k = ref 0 in
    Array.iter
      (fun e ->
        if slot e <> 0 then begin
          fkeys.(!k) <- e;
          incr k
        end)
      entries;
    let type_ids =
      Array.map
        (fun e ->
          Result_profile.type_key
            ~entity:cols.tag_sym.(e lsr tag_shift)
            ~attribute:cols.key_path_sym.(slot e - 1))
        fkeys
    in
    let ftype = ref { Feature.entity = ""; attribute = "" } in
    let feats =
      Array.mapi
        (fun k e ->
          let key = slot e - 1 in
          if k = 0 || type_ids.(k) <> type_ids.(k - 1) then
            ftype :=
              {
                Feature.entity = cols.tag_name.(e lsr tag_shift);
                attribute = cols.key_path.(key);
              };
          {
            Result_profile.feature =
              { Feature.ftype = !ftype; value = cols.key_value.(key) };
            count = count c e;
            value_id = cols.key_value_sym.(key);
          })
        fkeys
    in
    Result_profile.canonical ~label
      ~population:(fun k -> count c ((fkeys.(k) lsr tag_shift) lsl tag_shift))
      ~type_ids feats
  end
