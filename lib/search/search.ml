let log_src = Logs.Src.create "xsact.search" ~doc:"XSACT search engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type engine = {
  tree : Doctree.t;
  idx : Index.t;
  cats : Node_category.t;
}

type result = {
  rank : int;
  node_id : int;
  dewey : Dewey.t;
  element : Xml.element;
  score : float;
  slca_ids : int list;
}

let of_element root =
  let tree = Doctree.of_element root in
  let idx = Index.build tree in
  let cats = Node_category.infer tree in
  Log.info (fun m ->
      m "indexed corpus: %d nodes, %d tokens, %d postings" (Doctree.size tree)
        (Index.vocabulary_size idx)
        (Index.total_postings idx));
  { tree; idx; cats }

let create (doc : Xml.document) = of_element doc.root

let doctree e = e.tree
let index e = e.idx
let categories e = e.cats

type scoring = Occurrence | Tf_idf

(* Count posting ids of [kw] inside the subtree interval by binary search. *)
let occurrences_in engine kw ~lo ~hi =
  let posts = Index.postings engine.idx kw in
  let count_from target =
    let l = ref 0 and r = ref (Array.length posts) in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      if posts.(mid) < target then l := mid + 1 else r := mid
    done;
    !l
  in
  count_from hi - count_from lo

(* Score a candidate result: keyword weight inside the subtree, damped by
   subtree size so that enormous results do not dominate. Under [Tf_idf]
   each keyword occurrence is worth the keyword's inverse document
   frequency; under [Occurrence] every occurrence is worth 1. *)
let score_result engine scoring keywords node_id =
  let tree = engine.tree in
  let lo = node_id and hi = Doctree.subtree_end tree node_id in
  let size = hi - lo in
  let weight_of kw =
    match scoring with
    | Occurrence -> 1.0
    | Tf_idf ->
      let df = Index.doc_frequency engine.idx kw in
      if df = 0 then 0.0
      else log (float_of_int (Doctree.size tree) /. float_of_int df)
  in
  let mass =
    List.fold_left
      (fun acc kw ->
        acc +. (float_of_int (occurrences_in engine kw ~lo ~hi) *. weight_of kw))
      0.0 keywords
  in
  mass /. log (float_of_int (size + 2))

(* Nearest ancestor-or-self of [id] with tag [tag]; falls back to entity
   lifting when the path to the root has no such tag. *)
let lift_to_tag engine tag id =
  let rec up id =
    let node = Doctree.node engine.tree id in
    if node.tag = tag then Some id
    else match node.parent with -1 -> None | p -> up p
  in
  match up id with
  | Some id -> id
  | None -> Node_category.entity_of engine.cats engine.tree id

type semantics = Slca | Elca

let query ?limit ?lift_to ?(semantics = Slca) ?(scoring = Occurrence) engine
    keyword_string =
  let keywords = Token.normalize_query keyword_string in
  match keywords with
  | [] -> []
  | _ ->
    let slcas =
      match semantics with
      | Slca -> Slca.by_aggregation engine.idx keywords
      | Elca -> Slca.elca engine.idx keywords
    in
    (* Lift each SLCA to its nearest enclosing entity (or the requested
       tag); several SLCAs may land on the same node (merge their witness
       lists). *)
    let lift =
      match lift_to with
      | Some tag -> lift_to_tag engine tag
      | None -> Node_category.entity_of engine.cats engine.tree
    in
    let table : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun slca_id ->
        let entity_id = lift slca_id in
        match Hashtbl.find_opt table entity_id with
        | Some witnesses -> witnesses := slca_id :: !witnesses
        | None ->
          Hashtbl.add table entity_id (ref [ slca_id ]);
          order := entity_id :: !order)
      slcas;
    let candidates = List.rev !order in
    (* Drop candidates nested inside other candidates: lifting can make one
       result subtree contain another, and the outer one subsumes it. In id
       order an outermost candidate comes before everything nested in it,
       so one sweep over subtree intervals finds the nested ones. *)
    ignore
      (List.fold_left
         (fun outer_end id ->
           if id < outer_end then begin
             Hashtbl.remove table id;
             outer_end
           end
           else Doctree.subtree_end engine.tree id)
         0
         (List.sort Int.compare candidates));
    let minimal = List.filter (Hashtbl.mem table) candidates in
    let scored =
      List.map
        (fun id ->
          let node = Doctree.node engine.tree id in
          let witnesses = List.rev !(Hashtbl.find table id) in
          (id, node, score_result engine scoring keywords id, witnesses))
        minimal
    in
    let sorted =
      List.sort
        (fun (ida, _, sa, _) (idb, _, sb, _) ->
          let c = Float.compare sb sa in
          if c <> 0 then c else Int.compare ida idb)
        scored
    in
    Log.debug (fun m ->
        m "query %S: %d keywords, %d SLCAs, %d results after lifting"
          keyword_string (List.length keywords) (List.length slcas)
          (List.length minimal));
    let truncated =
      match limit with
      | Some l -> List.filteri (fun i _ -> i < l) sorted
      | None -> sorted
    in
    List.mapi
      (fun i (id, (node : Doctree.node), score, witnesses) ->
        {
          rank = i + 1;
          node_id = id;
          dewey = node.dewey;
          element = node.element;
          score;
          slca_ids = witnesses;
        })
      truncated

let result_title engine r =
  let candidates = Xml.children_elements r.element in
  let attribute_child =
    List.find_opt
      (fun (c : Xml.element) ->
        Node_category.is_attribute engine.cats c.tag
        && Xml.text_content c <> "")
      candidates
  in
  match attribute_child with
  | Some c -> Xml.text_content c
  | None -> r.element.tag
