type t = {
  tree : Doctree.t;
  table : (string, int array) Hashtbl.t;
  total : int;
}

let build tree =
  let lists : (string, int list ref) Hashtbl.t = Hashtbl.create 4096 in
  let total = ref 0 in
  Array.iter
    (fun (node : Doctree.node) ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun tok ->
          if not (Hashtbl.mem seen tok) then begin
            Hashtbl.add seen tok ();
            incr total;
            match Hashtbl.find_opt lists tok with
            | Some l -> l := node.id :: !l
            | None -> Hashtbl.add lists tok (ref [ node.id ])
          end)
        (Token.element_tokens node.element))
    (Doctree.nodes tree);
  let table = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter
    (fun tok l ->
      (* Ids were consed while scanning ascending ids, so reversing restores
         ascending order. *)
      Hashtbl.add table tok (Array.of_list (List.rev !l)))
    lists;
  { tree; table; total = !total }

let doctree t = t.tree

let empty_postings = [||]

let postings t tok =
  match Hashtbl.find_opt t.table tok with
  | Some arr -> arr
  | None -> empty_postings

let doc_frequency t tok = Array.length (postings t tok)
let vocabulary_size t = Hashtbl.length t.table
let total_postings t = t.total
