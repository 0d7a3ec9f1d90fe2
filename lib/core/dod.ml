type measure = Raw | Rate
type params = { threshold_pct : float; measure : measure }

let default_params = { threshold_pct = 10.0; measure = Raw }

(* {2 Packed link storage}

   A link is two unboxed ints in a flat [int array]:
     word A = (other  lsl 20) lor gi_other
     word B = (gap_self lsl 31) lor gap_other
   so a list of links is a run of 2×len words. The sentinel first-gap
   value fits the 31-bit field, which is why [infinity_gap] is
   [2^31 - 1] rather than [max_int]; real gaps are 1-based prefix
   indices and never approach it. [gi] indices are bounded by
   [weights_row] at context construction, so the packing is checked,
   not assumed. *)

let gi_bits = 20
let gi_mask = (1 lsl gi_bits) - 1
let gap_bits = 31
let gap_mask = (1 lsl gap_bits) - 1
let infinity_gap = gap_mask

type link = {
  other : int;
  gi_other : int;
  gap_self : int;
  gap_other : int;
}

(* A link list is a chain of segments aliasing shared buffers: a fresh
   build is one contiguous segment per list into one context-wide buffer;
   delta operations cons short fresh segments in front of (or alias
   suffixes of) the input's segments instead of copying. [slen] counts
   links; each link is 2 words at [sbuf.(soff + 2k)]. The nil sentinel is
   its own tail so iteration needs one physical-equality test, no option
   boxing. *)
type seg = { sbuf : int array; soff : int; slen : int; snext : seg }

let rec nil_seg = { sbuf = [||]; soff = 0; slen = 0; snext = nil_seg }

let rec chain_len s acc =
  if s == nil_seg then acc else chain_len s.snext (acc + s.slen)

(* A pair's entry table, before orientation: the shared types of results
   (i, j), i < j, packed two words per entry in the iteration order of
   result i's type map:
     word A = (gi_i lsl 20) lor gi_j
     word B = (gap_i lsl 31) lor gap_j
   Pure data — a function of the two profiles and the params only — which
   is what makes pairs independently computable and cacheable across
   context mutations. *)
module Pair_map = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type context = {
  params : params;
  (* the weighting the context was built with, kept so delta operations
     can weight types of results added later *)
  weight_fn : Feature.ftype -> int;
  results : Result_profile.t array;
  (* links_table.(i).(gi) = all pair links of type gi of result i, as a
     segment chain over packed buffers *)
  links_table : seg array array;
  (* weights.(i).(gi) = interestingness weight of that type *)
  weights : int array array;
  (* per-result feature -> count, kept for witness explanations *)
  counts : int Feature.Map.t array;
  (* per-result ftype -> global index, cached for delta recomputation *)
  fmaps : int Feature.Ftype_map.t array;
  (* ids.(i) = stable identity of result i. Contexts mutate only by
     appending (add) and order-preserving filtering (remove), so ids are
     strictly increasing with position — (ids.(i), ids.(j)) for i < j is
     always (lo, hi), and a cached pair entry table never needs
     re-orienting. *)
  ids : int array;
  next_id : int;
  (* (id_lo, id_hi) -> that pair's packed entries. The links_table is a
     pure fold of this map in canonical pair order, so deltas rebuild it
     by replay instead of recomputing first-gap scans. *)
  pairs : int array Pair_map.t;
}

let params c = c.params
let results c = c.results
let num_results c = Array.length c.results

(* Occurrence measure of a feature count within a result. *)
let measure_of params (profile : Result_profile.t) (f : Feature.t) count =
  match params.measure with
  | Raw -> float_of_int count
  | Rate ->
    let pop = Result_profile.population profile f.Feature.ftype.Feature.entity in
    float_of_int count /. float_of_int pop

let gap_exceeds params a b =
  let diff = Float.abs (a -. b) in
  let smaller = Float.min a b in
  diff > params.threshold_pct /. 100.0 *. smaller
  && diff > 0.0

(* First 1-based prefix index of [self_type]'s features witnessing a gap
   against [other]'s counts. *)
let first_gap params (self_profile : Result_profile.t)
    (self_type : Result_profile.type_info) (other_profile : Result_profile.t)
    other_counts =
  let n = Array.length self_type.features in
  let rec scan k =
    if k >= n then infinity_gap
    else
      let fi = self_type.features.(k) in
      let f = fi.Result_profile.feature in
      let self_measure = measure_of params self_profile f fi.Result_profile.count in
      let other_count =
        match Feature.Map.find_opt f other_counts with
        | Some c -> c
        | None -> 0
      in
      let other_measure = measure_of params other_profile f other_count in
      if gap_exceeds params self_measure other_measure then k + 1
      else scan (k + 1)
  in
  scan 0

let counts_map (profile : Result_profile.t) =
  Array.fold_left
    (fun acc (e : Result_profile.entity_info) ->
      Array.fold_left
        (fun acc (ti : Result_profile.type_info) ->
          Array.fold_left
            (fun acc (fi : Result_profile.feat_info) ->
              Feature.Map.add fi.feature fi.count acc)
            acc ti.features)
        acc e.types)
    Feature.Map.empty profile.entities

let ftype_map (profile : Result_profile.t) =
  Seq.fold_left
    (fun acc (gi, (ti : Result_profile.type_info)) ->
      Feature.Ftype_map.add ti.ftype gi acc)
    Feature.Ftype_map.empty
    (Result_profile.types_seq profile)

let weights_row weight profile =
  let nt = Result_profile.num_types profile in
  if nt > gi_mask then
    invalid_arg "Dod: too many feature types for the packed link encoding";
  Array.init nt (fun gi ->
      let w = weight (Result_profile.type_info profile gi).Result_profile.ftype in
      if w < 0 then invalid_arg "Dod.make_context: negative weight";
      w)

(* Shared types of pair (i, j) packed as entry words, in the iteration
   order of result i's type map. Reads only immutable data, so pairs are
   computed independently, in any order. *)
let compute_pair params results counts fmaps i j =
  let shared = ref 0 in
  Feature.Ftype_map.iter
    (fun ftype _ ->
      if Feature.Ftype_map.mem ftype fmaps.(j) then incr shared)
    fmaps.(i);
  let e = Array.make (2 * !shared) 0 in
  let pos = ref 0 in
  Feature.Ftype_map.iter
    (fun ftype gi_i ->
      match Feature.Ftype_map.find_opt ftype fmaps.(j) with
      | None -> ()
      | Some gi_j ->
        let ti = Result_profile.type_info results.(i) gi_i in
        let tj = Result_profile.type_info results.(j) gi_j in
        let gap_i = first_gap params results.(i) ti results.(j) counts.(j) in
        let gap_j = first_gap params results.(j) tj results.(i) counts.(i) in
        e.(!pos) <- (gi_i lsl gi_bits) lor gi_j;
        e.(!pos + 1) <- (gap_i lsl gap_bits) lor gap_j;
        pos := !pos + 2)
    fmaps.(i);
  e

(* Replay the cached pair entries into a fresh links_table, visiting the
   unordered pairs (i, j), i < j, in row-major order — exactly the merge
   order of the original batch build, so a table derived from any mix of
   cached and freshly-computed pairs is bit-identical to a from-scratch
   one. Two passes: count per-list lengths, then fill one context-wide
   packed buffer backward per list, so the last-merged link (the logical
   head of the old prepend order) lands at each segment's start. Every
   list is a single contiguous segment. O(total links): no first-gap
   scans, no feature-map lookups. *)
let derive_links_table results ids pairs =
  let n = Array.length results in
  let find_entries i j =
    match Pair_map.find_opt (ids.(i), ids.(j)) pairs with
    | Some e -> e
    | None -> invalid_arg "Dod: missing pair table"
  in
  let lens =
    Array.map
      (fun profile -> Array.make (Result_profile.num_types profile) 0)
      results
  in
  let total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e = find_entries i j in
      let ne = Array.length e / 2 in
      total := !total + (2 * ne);
      for k = 0 to ne - 1 do
        let a = e.(2 * k) in
        let gi_i = a lsr gi_bits and gi_j = a land gi_mask in
        lens.(i).(gi_i) <- lens.(i).(gi_i) + 1;
        lens.(j).(gi_j) <- lens.(j).(gi_j) + 1
      done
    done
  done;
  let buf = Array.make (2 * !total) 0 in
  let offs = Array.map (fun row -> Array.make (Array.length row) 0) lens in
  let cur = Array.map (fun row -> Array.make (Array.length row) 0) lens in
  let pos = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun gi len ->
          offs.(i).(gi) <- !pos;
          cur.(i).(gi) <- !pos + (2 * len);
          pos := !pos + (2 * len))
        row)
    lens;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e = find_entries i j in
      let ne = Array.length e / 2 in
      for k = 0 to ne - 1 do
        let a = e.(2 * k) and b = e.(2 * k + 1) in
        let gi_i = a lsr gi_bits and gi_j = a land gi_mask in
        let gap_i = b lsr gap_bits and gap_j = b land gap_mask in
        let p = cur.(i).(gi_i) - 2 in
        cur.(i).(gi_i) <- p;
        buf.(p) <- (j lsl gi_bits) lor gi_j;
        buf.(p + 1) <- b;
        let p = cur.(j).(gi_j) - 2 in
        cur.(j).(gi_j) <- p;
        buf.(p) <- (i lsl gi_bits) lor gi_i;
        buf.(p + 1) <- (gap_j lsl gap_bits) lor gap_i
      done
    done
  done;
  Array.init n (fun i ->
      Array.mapi
        (fun gi len ->
          if len = 0 then nil_seg
          else { sbuf = buf; soff = offs.(i).(gi); slen = len; snext = nil_seg })
        lens.(i))

(* Extend a links_table for one appended result, bit-identically to a
   batch rebuild over the extended array. In the batch's row-major merge,
   every new pair (k, n) is the last pair of row k, so for an existing
   result k the new links are the final prepends to its lists — each
   affected list gains a fresh 1-link segment at its head, with the old
   chain behind it (physically shared; [equal_context] compares the
   logical sequences). The appended result's own lists see pairs (0, n) …
   (n−1, n) in that order, built contiguously into their own buffer.
   O(n × types) fresh words, not the O(n²) of a full replay. *)
let extend_links_table links_table results new_buffers =
  let n = Array.length links_table in
  let n_entries =
    Array.fold_left (fun acc e -> acc + (Array.length e / 2)) 0 new_buffers
  in
  let addbuf = Array.make (2 * n_entries) 0 in
  let apos = ref 0 in
  let nt = Result_profile.num_types results.(n) in
  let lens_n = Array.make nt 0 in
  Array.iter
    (fun e ->
      let ne = Array.length e / 2 in
      for k = 0 to ne - 1 do
        let gi_n = e.(2 * k) land gi_mask in
        lens_n.(gi_n) <- lens_n.(gi_n) + 1
      done)
    new_buffers;
  let nbuf = Array.make (2 * n_entries) 0 in
  let offs_n = Array.make nt 0 and cur_n = Array.make nt 0 in
  let pos = ref 0 in
  for gi = 0 to nt - 1 do
    offs_n.(gi) <- !pos;
    cur_n.(gi) <- !pos + (2 * lens_n.(gi));
    pos := !pos + (2 * lens_n.(gi))
  done;
  let table =
    Array.init (n + 1) (fun k ->
        if k < n then Array.copy links_table.(k)
        else
          Array.init nt (fun gi ->
              if lens_n.(gi) = 0 then nil_seg
              else
                {
                  sbuf = nbuf;
                  soff = offs_n.(gi);
                  slen = lens_n.(gi);
                  snext = nil_seg;
                }))
  in
  for k = 0 to n - 1 do
    let e = new_buffers.(k) in
    let ne = Array.length e / 2 in
    for m = 0 to ne - 1 do
      let a = e.(2 * m) and b = e.(2 * m + 1) in
      let gi_k = a lsr gi_bits and gi_n = a land gi_mask in
      let gap_k = b lsr gap_bits and gap_n = b land gap_mask in
      let p = !apos in
      apos := p + 2;
      addbuf.(p) <- (n lsl gi_bits) lor gi_n;
      addbuf.(p + 1) <- b;
      table.(k).(gi_k) <-
        { sbuf = addbuf; soff = p; slen = 1; snext = table.(k).(gi_k) };
      let p = cur_n.(gi_n) - 2 in
      cur_n.(gi_n) <- p;
      nbuf.(p) <- (k lsl gi_bits) lor gi_k;
      nbuf.(p + 1) <- (gap_n lsl gap_bits) lor gap_k
    done
  done;
  table

(* Shrink a link chain past a removed result. The batch merge order makes
   every chain strictly descending in the partner index (row k's prepends
   run (0,k) … (k−1,k) then (k,k+1) … (k,n−1), so the head holds the
   largest index), which turns the old full filter+reindex into prefix
   surgery: locate the boundary, rewrite the links with [other > index]
   (shift down) into one fresh segment and alias the whole remainder of
   the chain — possibly mid-segment — physically. Cost O(links above the
   removed index); chains the removed result never reached are returned
   as-is ([==]). *)
let locate_cut index chain =
  (* (links above the removed index, the shared tail below it, whether a
     link to the removed result itself was found and skipped) *)
  let rec go s npre =
    if s == nil_seg then (npre, nil_seg, false)
    else begin
      let rec scan k =
        if k >= s.slen then None
        else
          let other = s.sbuf.(s.soff + (2 * k)) lsr gi_bits in
          if other > index then scan (k + 1) else Some (k, other = index)
      in
      match scan 0 with
      | None -> go s.snext (npre + s.slen)
      | Some (k, hit) ->
        let cut = if hit then k + 1 else k in
        let tail =
          if cut >= s.slen then s.snext
          else if cut = 0 then s
          else
            {
              sbuf = s.sbuf;
              soff = s.soff + (2 * cut);
              slen = s.slen - cut;
              snext = s.snext;
            }
        in
        (npre + k, tail, hit)
    end
  in
  go chain 0

let shrink_chain index chain =
  let npre, tail, hit = locate_cut index chain in
  if npre = 0 && not hit then chain (* every [other] < index: shared *)
  else if npre = 0 then tail (* head drop: shared tail *)
  else begin
    let buf = Array.make (2 * npre) 0 in
    let pos = ref 0 in
    let rec copy s =
      if !pos < 2 * npre then begin
        let take = min s.slen ((2 * npre - !pos) / 2) in
        for k = 0 to take - 1 do
          buf.(!pos) <- s.sbuf.(s.soff + (2 * k)) - (1 lsl gi_bits);
          buf.(!pos + 1) <- s.sbuf.(s.soff + (2 * k) + 1);
          pos := !pos + 2
        done;
        copy s.snext
      end
    in
    copy chain;
    { sbuf = buf; soff = 0; slen = npre; snext = tail }
  end

let shrink_row index row =
  let changed = ref false in
  let row' =
    Array.map
      (fun s ->
        let s' = shrink_chain index s in
        if s' != s then changed := true;
        s')
      row
  in
  if !changed then row' else row

let shrink_links_table links_table index =
  let n = Array.length links_table in
  Array.init (n - 1) (fun k' ->
      let k = if k' < index then k' else k' + 1 in
      shrink_row index links_table.(k))

(* Fast path for removing the {e newest} result (the interactive undo):
   its links were the final prepends of every row, so they sit at the
   chain heads and no surviving index shifts — the new table is the old
   one minus those heads, and dropping a head is pure offset arithmetic
   (or stepping to the next segment), zero fresh link words. The pairs
   map doubles as a per-result membership index: the entries of pair
   (id_k, removed_id) name exactly the lists of survivor k that link to
   the removed result, so the surgery touches nothing else — untouched
   chains, tails, and whole rows (when the pair shares no types) are the
   input's own, physically. *)
let drop_head s =
  if s.slen > 1 then { s with soff = s.soff + 2; slen = s.slen - 1 }
  else s.snext

let remove_last_links_table c ~index ~removed =
  Array.init index (fun k ->
      match Pair_map.find_opt (c.ids.(k), removed) c.pairs with
      | None -> c.links_table.(k)
      | Some e when Array.length e = 0 -> c.links_table.(k)
      | Some e ->
        let row = Array.copy c.links_table.(k) in
        let ne = Array.length e / 2 in
        for m = 0 to ne - 1 do
          let gi_k = e.(2 * m) lsr gi_bits in
          let s = row.(gi_k) in
          (* membership index out of sync if the head is not the removed
             result's link *)
          assert (s != nil_seg && s.sbuf.(s.soff) lsr gi_bits = index);
          row.(gi_k) <- drop_head s
        done;
        row)

(* Compute the entry tables for an explicit worklist of pairs. A context
   is all-or-nothing — a partially linked table would silently change the
   objective — so a tripped deadline raises Deadline.Expired between pairs
   instead of returning something degraded. *)
let compute_pairs ?deadline params results counts fmaps pair_i pair_j =
  Array.init (Array.length pair_i) (fun p ->
      Deadline.check deadline;
      compute_pair params results counts fmaps pair_i.(p) pair_j.(p))

(* All unordered pairs (i, j), i < j, flattened in row-major order. *)
let all_pairs n =
  let npairs = n * (n - 1) / 2 in
  let pair_i = Array.make npairs 0 and pair_j = Array.make npairs 0 in
  let p = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pair_i.(!p) <- i;
      pair_j.(!p) <- j;
      incr p
    done
  done;
  (pair_i, pair_j)

(* [domains] is ignored; it stays only for e2ebench/replay.ml. *)
let make_context ?(params = default_params) ?(weight = fun _ -> 1)
    ?domains:_ ?deadline results =
  if Array.length results < 2 then
    invalid_arg "Dod.make_context: need at least two results";
  Deadline.check deadline;
  let weights = Array.map (weights_row weight) results in
  let n = Array.length results in
  let counts = Array.map counts_map results in
  let fmaps = Array.map ftype_map results in
  let pair_i, pair_j = all_pairs n in
  let buffers =
    compute_pairs ?deadline params results counts fmaps pair_i pair_j
  in
  let ids = Array.init n (fun i -> i) in
  let pairs = ref Pair_map.empty in
  Array.iteri
    (fun p entries ->
      pairs := Pair_map.add (pair_i.(p), pair_j.(p)) entries !pairs)
    buffers;
  let links_table = derive_links_table results ids !pairs in
  {
    params;
    weight_fn = weight;
    results;
    links_table;
    weights;
    counts;
    fmaps;
    ids;
    next_id = n;
    pairs = !pairs;
  }

(* {2 Delta operations}

   All three return a fresh context sharing the surviving pair entry
   tables and link buffers with the input — the input context stays fully
   usable (sessions keep their history, and a deadline tripping mid-delta
   leaves it intact). Because [compute_pair] is a pure function of the
   two profiles and the params, and the table surgery
   ([extend_links_table] / [shrink_links_table]) reproduces the canonical
   batch merge order, every delta result is bit-identical to
   [make_context] over the same result array. *)

let add_result ?deadline c profile =
  Deadline.check deadline;
  let n = Array.length c.results in
  let results = Array.append c.results [| profile |] in
  let weights = Array.append c.weights [| weights_row c.weight_fn profile |] in
  let counts = Array.append c.counts [| counts_map profile |] in
  let fmaps = Array.append c.fmaps [| ftype_map profile |] in
  let ids = Array.append c.ids [| c.next_id |] in
  (* only the n new pairs (i, n), i < n — the surviving O(n²) are cached *)
  let pair_i = Array.init n (fun i -> i) in
  let pair_j = Array.make n n in
  let buffers =
    compute_pairs ?deadline c.params results counts fmaps pair_i pair_j
  in
  let pairs = ref c.pairs in
  Array.iteri
    (fun i entries -> pairs := Pair_map.add (c.ids.(i), c.next_id) entries !pairs)
    buffers;
  let links_table = extend_links_table c.links_table results buffers in
  {
    c with
    results;
    weights;
    counts;
    fmaps;
    ids;
    next_id = c.next_id + 1;
    pairs = !pairs;
    links_table;
  }

let remove_result c index =
  let n = Array.length c.results in
  if index < 0 || index >= n then
    invalid_arg "Dod.remove_result: index out of range";
  if n <= 2 then invalid_arg "Dod.remove_result: need at least two results";
  let removed = c.ids.(index) in
  let keep = Array.init (n - 1) (fun i -> if i < index then i else i + 1) in
  let take a = Array.map (fun i -> a.(i)) keep in
  let results = take c.results in
  let weights = take c.weights in
  let counts = take c.counts in
  let fmaps = take c.fmaps in
  let ids = take c.ids in
  let pairs =
    Pair_map.filter (fun (a, b) _ -> a <> removed && b <> removed) c.pairs
  in
  let links_table =
    if index = n - 1 then remove_last_links_table c ~index ~removed
    else shrink_links_table c.links_table index
  in
  { c with results; weights; counts; fmaps; ids; pairs; links_table }

type op =
  | Add of Result_profile.t
  | Remove of int
  | Reparams of {
      params : params option;
      weight : (Feature.ftype -> int) option;
    }

(* A slot of the batch's final arrangement: a survivor of the input
   context, or a result added (and not re-removed) along the way. *)
type slot = Old of int | New of int * Result_profile.t

(* Coalesce a whole op list into one delta. The sequence is simulated over
   slot descriptors first — O(ops × n) bookkeeping, no pair work — which
   is where the dedup falls out: a result added and later removed within
   the batch never becomes a slot, so its pairs are never computed, and
   only the last params/weight matter. Then one pair worklist (everything
   not cached: pairs touching new results, or all of them after a params
   change) and one link-table replay produce the final context.

   The arrangement invariant holds throughout: removes preserve relative
   order and adds append with fresh (larger) ids, so ids stay strictly
   increasing with position and every cached entry table keeps its
   orientation. *)
let apply_batch ?deadline c ops =
  let slots =
    ref (List.init (Array.length c.results) (fun i -> Old i))
  in
  let next_id = ref c.next_id in
  let final_params = ref c.params in
  let weight_fn = ref c.weight_fn in
  let weight_dirty = ref false in
  List.iter
    (function
      | Add p ->
        slots := !slots @ [ New (!next_id, p) ];
        incr next_id
      | Remove i ->
        let len = List.length !slots in
        if i < 0 || i >= len then
          invalid_arg "Dod.apply: remove index out of range";
        if len <= 2 then invalid_arg "Dod.apply: need at least two results";
        slots := List.filteri (fun j _ -> j <> i) !slots
      | Reparams { params; weight } ->
        (match params with Some p -> final_params := p | None -> ());
        (match weight with
        | Some w ->
          weight_fn := w;
          weight_dirty := true
        | None -> ()))
    ops;
  let slots = Array.of_list !slots in
  let params = !final_params in
  let params_changed = params <> c.params in
  let results =
    Array.map (function Old i -> c.results.(i) | New (_, p) -> p) slots
  in
  let counts =
    Array.map (function Old i -> c.counts.(i) | New (_, p) -> counts_map p)
      slots
  in
  let fmaps =
    Array.map (function Old i -> c.fmaps.(i) | New (_, p) -> ftype_map p)
      slots
  in
  let ids =
    Array.map (function Old i -> c.ids.(i) | New (id, _) -> id) slots
  in
  let weights =
    if !weight_dirty then Array.map (weights_row !weight_fn) results
    else
      Array.map
        (function
          | Old i -> c.weights.(i) | New (_, p) -> weights_row !weight_fn p)
        slots
  in
  let n = Array.length results in
  (* One worklist of every pair not served by the cache, in row-major
     order (the order is irrelevant to the result — entries are keyed). *)
  let pairs = ref Pair_map.empty in
  let missing = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let key = (ids.(i), ids.(j)) in
      match
        if params_changed then None else Pair_map.find_opt key c.pairs
      with
      | Some entries -> pairs := Pair_map.add key entries !pairs
      | None -> missing := (i, j) :: !missing
    done
  done;
  let missing = Array.of_list (List.rev !missing) in
  let pair_i = Array.map fst missing and pair_j = Array.map snd missing in
  let buffers =
    compute_pairs ?deadline params results counts fmaps pair_i pair_j
  in
  Array.iteri
    (fun p entries ->
      pairs := Pair_map.add (ids.(pair_i.(p)), ids.(pair_j.(p))) entries !pairs)
    buffers;
  let links_table = derive_links_table results ids !pairs in
  {
    params;
    weight_fn = !weight_fn;
    results;
    links_table;
    weights;
    counts;
    fmaps;
    ids;
    next_id = !next_id;
    pairs = !pairs;
  }

(* Only a weight-only change has a fast path: the pair tables do not
   depend on weights. Threshold/measure feed the first-gap scans, so a
   params change recomputes every pair — exactly what a one-op batch does. *)
let reparams ?params ?weight ?deadline c =
  Deadline.check deadline;
  match params with
  | Some p when p <> c.params ->
    apply_batch ?deadline c [ Reparams { params; weight } ]
  | _ ->
    let weights =
      match weight with
      | Some w -> Array.map (weights_row w) c.results
      | None -> c.weights
    in
    { c with weight_fn = Option.value weight ~default:c.weight_fn; weights }

let apply ?deadline c ops =
  Deadline.check deadline;
  match ops with
  | [] -> c
  (* Single ops keep their dedicated surgical paths — an appended result
     splices links instead of replaying the table, a removed one shares
     every untouched tail — so routing session history through [apply]
     costs nothing over calling the specific operation. *)
  | [ Add p ] -> add_result ?deadline c p
  | [ Remove i ] -> remove_result c i
  | [ Reparams { params; weight } ] -> reparams ?params ?weight ?deadline c
  | ops -> apply_batch ?deadline c ops

(* {2 Observation helpers for the serve layer and tests} *)

(* Logical link-sequence equality across differently-segmented chains:
   the bit-identity contract is over the packed words, not the
   segmentation, which is an artifact of the mutation history. *)
let equal_chain a b =
  let rec norm s k = if s != nil_seg && k >= s.slen then norm s.snext 0 else (s, k) in
  let rec go sa ka sb kb =
    let sa, ka = norm sa ka in
    let sb, kb = norm sb kb in
    if sa == nil_seg then sb == nil_seg
    else if sb == nil_seg then false
    else
      sa.sbuf.(sa.soff + (2 * ka)) = sb.sbuf.(sb.soff + (2 * kb))
      && sa.sbuf.(sa.soff + (2 * ka) + 1) = sb.sbuf.(sb.soff + (2 * kb) + 1)
      && go sa (ka + 1) sb (kb + 1)
  in
  go a 0 b 0

let equal_links_table a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb && Array.for_all2 equal_chain ra rb)
       a b

let equal_context a b =
  a.params = b.params
  && Array.length a.results = Array.length b.results
  && Array.for_all2 (fun (x : Result_profile.t) y -> x == y) a.results b.results
  && equal_links_table a.links_table b.links_table
  && a.weights = b.weights
  && Array.for_all2 (Feature.Map.equal ( = )) a.counts b.counts

let num_pair_tables c = Pair_map.cardinal c.pairs

let approx_bytes c =
  (* rough heap words of the flat representation, charged as a function
     of the logical content only: a delta-built context and a fresh build
     of the same results report the same footprint even when their
     physical segmentation differs (segmentation is a mutation-history
     artifact; billing it would make footprints drift under churn while
     the data stays the same). Links are 2 packed words; a non-empty list
     is charged one segment header (5 words) and its buffer words. Cached
     pair entries are separate packed storage in this representation (the
     boxed one merged the tuples into the links at derivation), so they
     are billed: 2 words per entry plus array header, plus ~8 words of
     map spine per node. Count/type maps: ~6 words per AVL binding; keys
     are shared with the profiles and not charged here. *)
  let words = ref 64 in
  Array.iter
    (fun row ->
      words := !words + Array.length row + 2;
      Array.iter
        (fun s ->
          let len = chain_len s 0 in
          if len > 0 then words := !words + 5 + (2 * len))
        row)
    c.links_table;
  Pair_map.iter
    (fun _ e -> words := !words + 8 + Array.length e + 1)
    c.pairs;
  Array.iter (fun m -> words := !words + (6 * Feature.Map.cardinal m)) c.counts;
  Array.iter
    (fun m -> words := !words + (6 * Feature.Ftype_map.cardinal m))
    c.fmaps;
  Array.iter (fun w -> words := !words + Array.length w + 2) c.weights;
  !words * (Sys.word_size / 8)

let link_buffers c =
  let bufs = ref [] in
  Array.iter
    (fun row ->
      Array.iter
        (fun s ->
          let rec go s =
            if s != nil_seg then begin
              if not (List.memq s.sbuf !bufs) then bufs := s.sbuf :: !bufs;
              go s.snext
            end
          in
          go s)
        row)
    c.links_table;
  !bufs

let fresh_link_words ~parent c =
  let pb = link_buffers parent in
  List.fold_left
    (fun acc b -> if List.memq b pb then acc else acc + Array.length b)
    0 (link_buffers c)

let iter_links c ~i ~gi f =
  let rec go s =
    if s != nil_seg then begin
      for k = 0 to s.slen - 1 do
        let a = s.sbuf.(s.soff + (2 * k)) and b = s.sbuf.(s.soff + (2 * k) + 1) in
        f ~other:(a lsr gi_bits) ~gi_other:(a land gi_mask)
          ~gap_self:(b lsr gap_bits) ~gap_other:(b land gap_mask)
      done;
      go s.snext
    end
  in
  go c.links_table.(i).(gi)

let num_links c ~i ~gi = chain_len c.links_table.(i).(gi) 0

let links c ~i ~gi =
  let acc = ref [] in
  iter_links c ~i ~gi (fun ~other ~gi_other ~gap_self ~gap_other ->
      acc := { other; gi_other; gap_self; gap_other } :: !acc);
  List.rev !acc

let weight_of c ~i ~gi = c.weights.(i).(gi)

let differentiable link ~q_self ~q_other =
  q_self >= 1 && q_other >= 1
  && (link.gap_self <= q_self || link.gap_other <= q_other)

let threshold_q link ~q_other =
  if q_other < 1 then infinity_gap
  else if link.gap_other <= q_other then 1
  else link.gap_self

let dod_pair c ~i ~j di dj =
  let count = ref 0 in
  let row = c.links_table.(i) in
  for gi = 0 to Array.length row - 1 do
    let q_self = Dfs.q di gi in
    if q_self >= 1 then begin
      let rec go s =
        if s != nil_seg then begin
          for k = 0 to s.slen - 1 do
            let a = s.sbuf.(s.soff + (2 * k)) in
            if a lsr gi_bits = j then begin
              let q_other = Dfs.q dj (a land gi_mask) in
              if q_other >= 1 then begin
                let b = s.sbuf.(s.soff + (2 * k) + 1) in
                if b lsr gap_bits <= q_self || b land gap_mask <= q_other then
                  count := !count + c.weights.(i).(gi)
              end
            end
          done;
          go s.snext
        end
      in
      go row.(gi)
    end
  done;
  !count

let total c dfss =
  if Array.length dfss <> Array.length c.results then
    invalid_arg "Dod.total: arity mismatch";
  let sum = ref 0 in
  let n = Array.length c.results in
  for i = 0 to n - 1 do
    let row = c.links_table.(i) in
    for gi = 0 to Array.length row - 1 do
      let q_self = Dfs.q dfss.(i) gi in
      if q_self >= 1 then begin
        let w = c.weights.(i).(gi) in
        let rec go s =
          if s != nil_seg then begin
            for k = 0 to s.slen - 1 do
              let a = s.sbuf.(s.soff + (2 * k)) in
              let other = a lsr gi_bits in
              (* Count each unordered pair once, from the lower index. *)
              if other > i then begin
                let q_other = Dfs.q dfss.(other) (a land gi_mask) in
                if q_other >= 1 then begin
                  let b = s.sbuf.(s.soff + (2 * k) + 1) in
                  if b lsr gap_bits <= q_self || b land gap_mask <= q_other
                  then sum := !sum + w
                end
              end
            done;
            go s.snext
          end
        in
        go row.(gi)
      end
    done
  done;
  !sum

let delta_for_type c ~dfss ~i ~gi ~old_q ~new_q =
  let delta = ref 0 in
  let w = c.weights.(i).(gi) in
  let rec go s =
    if s != nil_seg then begin
      for k = 0 to s.slen - 1 do
        let a = s.sbuf.(s.soff + (2 * k)) in
        let q_other = Dfs.q dfss.(a lsr gi_bits) (a land gi_mask) in
        if q_other >= 1 then begin
          let b = s.sbuf.(s.soff + (2 * k) + 1) in
          let gap_self = b lsr gap_bits and gap_other = b land gap_mask in
          let before =
            old_q >= 1 && (gap_self <= old_q || gap_other <= q_other)
          in
          let after =
            new_q >= 1 && (gap_self <= new_q || gap_other <= q_other)
          in
          if before && not after then delta := !delta - w
          else if (not before) && after then delta := !delta + w
        end
      done;
      go s.snext
    end
  in
  go c.links_table.(i).(gi);
  !delta

type witness = {
  feature : Feature.t;
  measure_i : float;
  measure_j : float;
}

let measures_of c ~i ~j f =
  let count_in r =
    match Feature.Map.find_opt f c.counts.(r) with Some n -> n | None -> 0
  in
  ( measure_of c.params c.results.(i) f (count_in i),
    measure_of c.params c.results.(j) f (count_in j) )

let find_link c ~i ~gi ~j =
  let rec go s =
    if s == nil_seg then None
    else begin
      let rec scan k =
        if k >= s.slen then go s.snext
        else
          let a = s.sbuf.(s.soff + (2 * k)) in
          if a lsr gi_bits = j then
            let b = s.sbuf.(s.soff + (2 * k) + 1) in
            Some
              {
                other = j;
                gi_other = a land gi_mask;
                gap_self = b lsr gap_bits;
                gap_other = b land gap_mask;
              }
          else scan (k + 1)
      in
      scan 0
    end
  in
  go c.links_table.(i).(gi)

let witness c ~i ~j di dj ~gi =
  match find_link c ~i ~gi ~j with
  | None -> None
  | Some link ->
    let q_self = Dfs.q di gi and q_other = Dfs.q dj link.gi_other in
    if not (differentiable link ~q_self ~q_other) then None
    else
      let f =
        if link.gap_self <= q_self then
          (Result_profile.type_info c.results.(i) gi).features.(link.gap_self - 1)
            .Result_profile.feature
        else
          (Result_profile.type_info c.results.(j) link.gi_other).features.(link
                                                                             .gap_other
                                                                           - 1)
            .Result_profile.feature
      in
      let measure_i, measure_j = measures_of c ~i ~j f in
      Some { feature = f; measure_i; measure_j }

let explain_pair c ~i ~j di dj =
  let acc = ref [] in
  Array.iteri
    (fun gi _ ->
      match witness c ~i ~j di dj ~gi with
      | Some w ->
        acc := ((Result_profile.type_info c.results.(i) gi).ftype, w) :: !acc
      | None -> ())
    c.links_table.(i);
  List.rev !acc

(* Both gap fields at the sentinel: the packed word of a never-
   differentiable link. *)
let inf_both = (infinity_gap lsl gap_bits) lor infinity_gap

let upper_bound_pair c ~i ~j =
  let sum = ref 0 in
  let row = c.links_table.(i) in
  for gi = 0 to Array.length row - 1 do
    let rec go s =
      if s != nil_seg then begin
        for k = 0 to s.slen - 1 do
          let a = s.sbuf.(s.soff + (2 * k)) in
          if a lsr gi_bits = j && s.sbuf.(s.soff + (2 * k) + 1) <> inf_both
          then sum := !sum + c.weights.(i).(gi)
        done;
        go s.snext
      end
    in
    go row.(gi)
  done;
  !sum

(* {2 Serialization}

   The warm-boot wire form (DESIGN.md §14): params + stable ids + the
   cached pair entry tables, i.e. exactly the expensive-to-recompute
   first-gap data. Everything else in the record is a cheap pure
   function of the profiles ([counts_map], [ftype_map], [weights_row])
   or of the pairs map itself ([derive_links_table]), so
   [deserialize_context] rebuilds those on load and the result is
   bit-identical to the context that was serialized. All values are
   64-bit LE words — packed entry word B reaches 2^62, past int32. *)

let ser_version = 1

let serialize_context c =
  let buf = Buffer.create 1024 in
  let add_int v = Buffer.add_int64_le buf (Int64.of_int v) in
  add_int ser_version;
  Buffer.add_int64_le buf (Int64.bits_of_float c.params.threshold_pct);
  add_int (match c.params.measure with Raw -> 0 | Rate -> 1);
  let n = Array.length c.results in
  add_int n;
  Array.iter add_int c.ids;
  add_int c.next_id;
  add_int (Pair_map.cardinal c.pairs);
  Pair_map.iter
    (fun (lo, hi) entries ->
      add_int lo;
      add_int hi;
      add_int (Array.length entries);
      Array.iter add_int entries)
    c.pairs;
  Buffer.contents buf

let deserialize_context ?(weight = fun _ -> 1) profiles blob =
  let fail msg = failwith ("Dod.deserialize_context: " ^ msg) in
  try
    let len = String.length blob in
    let pos = ref 0 in
    let rd () =
      if !pos + 8 > len then fail "truncated";
      let v = Int64.to_int (String.get_int64_le blob !pos) in
      pos := !pos + 8;
      v
    in
    let rd_float () =
      if !pos + 8 > len then fail "truncated";
      let v = Int64.float_of_bits (String.get_int64_le blob !pos) in
      pos := !pos + 8;
      v
    in
    if rd () <> ser_version then fail "version mismatch";
    let threshold_pct = rd_float () in
    let measure =
      match rd () with 0 -> Raw | 1 -> Rate | _ -> fail "bad measure"
    in
    let n = rd () in
    if n <> Array.length profiles then fail "result count mismatch";
    if n < 2 then fail "fewer than two results";
    let ids = Array.make n 0 in
    for i = 0 to n - 1 do
      ids.(i) <- rd ();
      if ids.(i) < 0 || (i > 0 && ids.(i) <= ids.(i - 1)) then
        fail "ids not strictly increasing"
    done;
    let next_id = rd () in
    if next_id <= ids.(n - 1) then fail "stale next_id";
    let npairs = rd () in
    if npairs <> n * (n - 1) / 2 then fail "pair count mismatch";
    let pairs = ref Pair_map.empty in
    for _ = 1 to npairs do
      let lo = rd () in
      let hi = rd () in
      let ne = rd () in
      (* bound the claimed length by the bytes actually left — a corrupt
         count must not become an allocation attempt *)
      if ne < 0 || ne mod 2 <> 0 || ne > (len - !pos) / 8 then
        fail "bad entry table length";
      if lo >= hi then fail "bad pair key";
      let entries = Array.make ne 0 in
      for k = 0 to ne - 1 do
        entries.(k) <- rd ()
      done;
      pairs := Pair_map.add (lo, hi) entries !pairs
    done;
    if !pos <> len then fail "trailing bytes";
    if Pair_map.cardinal !pairs <> npairs then fail "duplicate pair key";
    let params = { threshold_pct; measure } in
    let weights = Array.map (weights_row weight) profiles in
    let counts = Array.map counts_map profiles in
    let fmaps = Array.map ftype_map profiles in
    (* entry gi fields must index the profiles' type rows — checked here
       so [derive_links_table] (and every later link walk) never reads a
       word this blob smuggled out of range *)
    Pair_map.iter
      (fun (lo, hi) entries ->
        let idx_of id =
          let rec go i =
            if i >= n then fail "pair key names an unknown id"
            else if ids.(i) = id then i
            else go (i + 1)
          in
          go 0
        in
        let i = idx_of lo and j = idx_of hi in
        let ne = Array.length entries / 2 in
        for k = 0 to ne - 1 do
          let a = entries.(2 * k) in
          let gi_i = a lsr gi_bits and gi_j = a land gi_mask in
          if gi_i >= Array.length weights.(i) || gi_j >= Array.length weights.(j)
          then fail "entry type index out of range"
        done)
      !pairs;
    let links_table = derive_links_table profiles ids !pairs in
    Ok
      {
        params;
        weight_fn = weight;
        results = profiles;
        links_table;
        weights;
        counts;
        fmaps;
        ids;
        next_id;
        pairs = !pairs;
      }
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error ("Dod.deserialize_context: " ^ msg)
