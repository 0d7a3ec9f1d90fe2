let max_keywords = Sys.int_size

(* All [k] low bits set, for 1 <= k <= Sys.int_size ([1 lsl k] is
   unspecified at k = Sys.int_size). *)
let full_mask k = -1 lsr (Sys.int_size - k)

type select = Smallest | Exclusive | Candidates

(* One pass over the keyword matches in ascending id (document) order: a
   k-way merge of the posting lists, keyword [i] contributing bit [i].

   The stack holds the root path of the latest match, one frame per node
   with the keywords matched so far in its subtree ([masks]), whether a
   proper descendant already covers every keyword ([covered]), and the
   keywords witnessed outside every full descendant ([contribs], the ELCA
   test). A match first pops the frames whose subtree interval it has left,
   then pushes itself and the ancestors it does not share with the stack
   top. Pre-order ids mean a popped subtree sees no later match, so a frame
   is final when popped: its mask, coverage and contribution then flow into
   the frame below. Only ancestors-or-self of matches ever get a non-empty
   mask, and each is pushed and popped once, so the pass costs
   O(sum of posting lengths * (k + depth)) and nothing sized by the corpus. *)
let pass select index keywords =
  let lists = Array.of_list (List.map (Index.postings index) keywords) in
  let k = Array.length lists in
  if k > max_keywords then
    invalid_arg
      (Printf.sprintf "Slca: %d keywords, at most %d are supported" k
         max_keywords);
  if k = 0 || Array.exists (fun l -> Array.length l = 0) lists then []
  else begin
    let full = full_mask k in
    let tree = Index.doctree index in
    let parents = Doctree.parent_ids tree in
    let cap = Doctree.max_depth tree in
    let ids = Array.make cap 0
    and masks = Array.make cap 0
    and contribs = Array.make cap 0
    and covered = Array.make cap false in
    let sp = ref 0 in
    let acc = ref [] in
    let pop () =
      decr sp;
      let i = !sp in
      let mask = masks.(i) and contrib = contribs.(i) in
      let keep =
        match select with
        | Smallest -> mask = full && not covered.(i)
        | Exclusive -> contrib = full
        | Candidates -> mask = full
      in
      if keep then acc := ids.(i) :: !acc;
      if i > 0 then begin
        masks.(i - 1) <- masks.(i - 1) lor mask;
        if mask = full then covered.(i - 1) <- true
        else contribs.(i - 1) <- contribs.(i - 1) lor contrib
      end
    in
    let heads = Array.make k 0 in
    let next = ref 0 in
    while !next < max_int do
      (* the smallest unconsumed match, and the keywords it matches *)
      next := max_int;
      for j = 0 to k - 1 do
        let l = lists.(j) in
        if heads.(j) < Array.length l && l.(heads.(j)) < !next then
          next := l.(heads.(j))
      done;
      let v = !next in
      if v < max_int then begin
        let bits = ref 0 in
        for j = 0 to k - 1 do
          let l = lists.(j) in
          if heads.(j) < Array.length l && l.(heads.(j)) = v then begin
            bits := !bits lor (1 lsl j);
            heads.(j) <- heads.(j) + 1
          end
        done;
        while !sp > 0 && v >= Doctree.subtree_end tree ids.(!sp - 1) do
          pop ()
        done;
        (* push v's missing ancestors, then v: climb to the stack top
           writing upward, then reverse the new segment into root order *)
        let stop = if !sp = 0 then -1 else ids.(!sp - 1) in
        let base = !sp in
        let x = ref v in
        while !x <> stop do
          ids.(!sp) <- !x;
          masks.(!sp) <- 0;
          contribs.(!sp) <- 0;
          covered.(!sp) <- false;
          incr sp;
          x := parents.(!x)
        done;
        let lo = ref base and hi = ref (!sp - 1) in
        while !lo < !hi do
          let t = ids.(!lo) in
          ids.(!lo) <- ids.(!hi);
          ids.(!hi) <- t;
          incr lo;
          decr hi
        done;
        masks.(!sp - 1) <- !bits;
        contribs.(!sp - 1) <- !bits
      end
    done;
    while !sp > 0 do
      pop ()
    done;
    (* frames pop in post-order; SLCAs never nest, so for them that is
       already document order *)
    match select with
    | Smallest -> List.rev !acc
    | Exclusive | Candidates -> List.sort Int.compare !acc
  end

let by_aggregation index keywords = pass Smallest index keywords
let elca index keywords = pass Exclusive index keywords
let lca_candidates index keywords = pass Candidates index keywords

(* Dewey-merge implementation, used as a testing oracle.

   For each match v of the rarest keyword, and for each other keyword list L,
   find the elements of L closest to v in document order (predecessor and
   successor); the deeper of lca(v, pred) and lca(v, succ) is the lowest
   ancestor of v with a match of that keyword. Intersecting over all lists
   (taking the shallowest of the per-list lowest ancestors) gives the lowest
   ancestor of v covering all keywords. The SLCAs are the minimal elements of
   that candidate set. *)
let by_merge index keywords =
  match keywords with
  | [] -> []
  | _ ->
    let tree = Index.doctree index in
    let lists = List.map (fun kw -> Index.postings index kw) keywords in
    if List.exists (fun arr -> Array.length arr = 0) lists then []
    else
      let deweys = Array.map (fun (n : Doctree.node) -> n.dewey) (Doctree.nodes tree) in
      let rarest, others =
        let sorted =
          List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) lists
        in
        (List.hd sorted, List.tl sorted)
      in
      (* Binary search in [arr] (ascending ids = ascending dewey order) for
         the rightmost id whose dewey <= target's, and its successor. *)
      let neighbors arr target_dewey =
        let lo = ref 0 and hi = ref (Array.length arr - 1) in
        let pred = ref None in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if Dewey.compare deweys.(arr.(mid)) target_dewey <= 0 then begin
            pred := Some mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        let succ =
          match !pred with
          | None -> if Array.length arr > 0 then Some 0 else None
          | Some i -> if i + 1 < Array.length arr then Some (i + 1) else None
        in
        ( Option.map (fun i -> arr.(i)) !pred,
          Option.map (fun i -> arr.(i)) succ )
      in
      let candidate_for v =
        let vd = deweys.(v) in
        List.fold_left
          (fun acc arr ->
            match acc with
            | None -> None
            | Some ancestor_dewey ->
              let pred, succ = neighbors arr vd in
              let lca_of = function
                | None -> None
                | Some u -> Some (Dewey.lca vd deweys.(u))
              in
              let best =
                match (lca_of pred, lca_of succ) with
                | None, None -> None
                | Some d, None | None, Some d -> Some d
                | Some d1, Some d2 ->
                  Some (if Dewey.depth d1 >= Dewey.depth d2 then d1 else d2)
              in
              (match best with
              | None -> None
              | Some d ->
                (* The covering ancestor for all lists so far is the
                   shallower of the two (it must contain both). *)
                Some
                  (if Dewey.depth d <= Dewey.depth ancestor_dewey then d
                   else ancestor_dewey)))
          (Some vd) others
      in
      let candidates =
        Array.to_list rarest
        |> List.filter_map (fun v ->
               match candidate_for v with
               | None -> None
               | Some d ->
                 (match Doctree.find_by_dewey tree d with
                 | Some node -> Some node.id
                 | None -> None))
      in
      let sorted = List.sort_uniq Int.compare candidates in
      (* Keep minimal candidates only: drop any candidate that is a proper
         ancestor of another candidate. *)
      List.filter
        (fun id ->
          not
            (List.exists
               (fun other ->
                 other <> id
                 && Doctree.is_descendant_or_self tree ~ancestor:id other)
               sorted))
        sorted
