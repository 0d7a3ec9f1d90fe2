type node = {
  id : int;
  parent : int;
  dewey : Dewey.t;
  tag : string;
  element : Xml.element;
  text : string;
  depth : int;
}

type t = {
  table : node array;
  ends : int array;
  parents : int array;
  max_depth : int;
}

let of_element root_elem =
  let acc = ref [] in
  let count = ref 0 in
  let rec go parent dewey depth (e : Xml.element) =
    let id = !count in
    incr count;
    acc :=
      {
        id;
        parent;
        dewey;
        tag = e.tag;
        element = e;
        text = Xml.immediate_text e;
        depth;
      }
      :: !acc;
    let child_ord = ref 0 in
    List.iter
      (fun n ->
        match n with
        | Xml.Element c ->
          go id (Dewey.child dewey !child_ord) (depth + 1) c;
          incr child_ord
        | _ -> ())
      e.children
  in
  go (-1) Dewey.root 1 root_elem;
  let table = Array.of_list (List.rev !acc) in
  let n = Array.length table in
  (* A pre-order subtree is a contiguous id interval, so its end is the next
     id whose depth is <= the node's own depth. One left-to-right pass with a
     stack of still-open subtrees computes all ends, and copies out the
     parent ids and the greatest depth on the way. *)
  let ends = Array.make n n in
  let parents = Array.make n (-1) in
  let max_depth = ref 0 in
  let stack = ref [] in
  for id = 0 to n - 1 do
    let node = table.(id) in
    let d = node.depth in
    parents.(id) <- node.parent;
    if d > !max_depth then max_depth := d;
    let rec pop () =
      match !stack with
      | (sid, sd) :: rest when sd >= d ->
        ends.(sid) <- id;
        stack := rest;
        pop ()
      | _ -> ()
    in
    pop ();
    stack := (id, d) :: !stack
  done;
  List.iter (fun (sid, _) -> ends.(sid) <- n) !stack;
  { table; ends; parents; max_depth = !max_depth }

let of_document (doc : Xml.document) = of_element doc.root

let size t = Array.length t.table

let node t id =
  if id < 0 || id >= Array.length t.table then
    invalid_arg "Doctree.node: id out of range";
  t.table.(id)

let nodes t = t.table
let parent_ids t = t.parents
let max_depth t = t.max_depth

let parent t id =
  let p = (node t id).parent in
  if p < 0 then None else Some t.table.(p)

let subtree_end t id =
  if id < 0 || id >= Array.length t.table then
    invalid_arg "Doctree.subtree_end: id out of range";
  t.ends.(id)

let is_descendant_or_self t ~ancestor id =
  id >= ancestor && id < subtree_end t ancestor

let find_by_dewey t dewey =
  let lo = ref 0 and hi = ref (Array.length t.table - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Dewey.compare t.table.(mid).dewey dewey in
    if c = 0 then found := Some t.table.(mid)
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let ancestors t id =
  let rec go acc id =
    let p = t.table.(id).parent in
    if p < 0 then List.rev acc else go (t.table.(p) :: acc) p
  in
  go [] id
