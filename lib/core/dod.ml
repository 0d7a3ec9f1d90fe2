type measure = Raw | Rate
type params = { threshold_pct : float; measure : measure }

let default_params = { threshold_pct = 10.0; measure = Raw }

(* {2 Packed link storage}

   A link is two unboxed ints in a flat [int array]:
     word A = (other  lsl 20) lor gi_other
     word B = (gap_self lsl 31) lor gap_other
   so a list of links is a run of 2×len words, and a context holds all
   of its lists back to back in one buffer. The sentinel first-gap
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

  let compare (a, b) (c, d) =
    let k = Int.compare a c in
    if k <> 0 then k else Int.compare b d
end)

type context = {
  params : params;
  (* the weighting the context was built with, kept so delta operations
     can weight types of results added later *)
  weight_fn : Feature.ftype -> int;
  results : Result_profile.t array;
  (* every pair link of the context, 2 packed words per link, one
     contiguous run per list, the lists in (result, type) order *)
  links : int array;
  (* the links of type gi of result i are links starts.(i).(gi) to
     starts.(i).(gi + 1) - 1, link k at words 2k and 2k + 1 of [links] *)
  starts : int array array;
  (* weights.(i).(gi) = interestingness weight of that type *)
  weights : int array array;
  (* ids.(i) = stable identity of result i. Contexts mutate only by
     appending (add) and order-preserving filtering (remove), so ids are
     strictly increasing with position — (ids.(i), ids.(j)) for i < j is
     always (lo, hi), and a cached pair entry table never needs
     re-orienting. *)
  ids : int array;
  next_id : int;
  (* (id_lo, id_hi) -> that pair's packed entries. The link table is a
     pure fold of this map in canonical pair order, so deltas rebuild it
     by replay instead of recomputing first-gap scans. *)
  pairs : int array Pair_map.t;
}

let params c = c.params
let results c = c.results
let num_results c = Array.length c.results

(* Occurrence measure of a feature count within a result whose entity
   has population [pop]. *)
let[@inline] measure_of params count pop =
  match params.measure with
  | Raw -> float_of_int count
  | Rate -> float_of_int count /. float_of_int pop

let[@inline] gap_exceeds params a b =
  let diff = Float.abs (a -. b) in
  let smaller = Float.min a b in
  diff > params.threshold_pct /. 100.0 *. smaller
  && diff > 0.0

(* First 1-based prefix index of [self]'s features witnessing a gap
   against the same type [other] of the other result, the counts found by
   value id. [pop_*] are the populations of the type's entity on each
   side. *)
let first_gap params (self : Result_profile.type_info) pop_self
    (other : Result_profile.type_info) pop_other =
  let n = Array.length self.features in
  let k = ref 0 and gap = ref infinity_gap in
  while !k < n do
    let fi = self.features.(!k) in
    let other_count = Result_profile.count_of other fi.value_id in
    if
      gap_exceeds params
        (measure_of params fi.count pop_self)
        (measure_of params other_count pop_other)
    then begin
      gap := !k + 1;
      k := n
    end
    else incr k
  done;
  !gap

let weights_row weight profile =
  let nt = Result_profile.num_types profile in
  if nt > gi_mask then
    invalid_arg "Dod: too many feature types for the packed link encoding";
  Array.init nt (fun gi ->
      let w = weight (Result_profile.type_info profile gi).Result_profile.ftype in
      if w < 0 then invalid_arg "Dod.make_context: negative weight";
      w)

(* Shared types of pair (i, j) packed as entry words, in result i's
   (entity, attribute) string order: its [by_name] walk. The shared types
   are found by one merge of the two results' type-id-sorted arrays, which
   leaves each type of i's partner in j (or -1) in [partner], a scratch
   row the caller sizes to the largest result. Reads only immutable data,
   so pairs are computed independently, in any order. *)
let compute_pair params results partner i j =
  let pi : Result_profile.t = results.(i) and pj = results.(j) in
  let a = pi.by_type_id and b = pj.by_type_id in
  Array.fill partner 0 (Array.length a / 2) (-1);
  let x = ref 0 and y = ref 0 and shared = ref 0 in
  while !x < Array.length a && !y < Array.length b do
    let c = Int.compare a.(!x) b.(!y) in
    if c < 0 then x := !x + 2
    else if c > 0 then y := !y + 2
    else begin
      partner.(a.(!x + 1)) <- b.(!y + 1);
      incr shared;
      x := !x + 2;
      y := !y + 2
    end
  done;
  let e = Array.make (2 * !shared) 0 in
  let pos = ref 0 in
  Array.iter
    (fun gi_i ->
      let gi_j = partner.(gi_i) in
      if gi_j >= 0 then begin
        let ti = Result_profile.type_info pi gi_i
        and tj = Result_profile.type_info pj gi_j in
        let pop_i = Result_profile.type_population pi gi_i
        and pop_j = Result_profile.type_population pj gi_j in
        let gap_i = first_gap params ti pop_i tj pop_j in
        let gap_j = first_gap params tj pop_j ti pop_i in
        e.(!pos) <- (gi_i lsl gi_bits) lor gi_j;
        e.(!pos + 1) <- (gap_i lsl gap_bits) lor gap_j;
        pos := !pos + 2
      end)
    pi.by_name;
  e

(* Replay the cached pair entries into a fresh link table, visiting the
   unordered pairs (i, j), i < j, in row-major order — exactly the merge
   order of the original batch build, so a table derived from any mix of
   cached and freshly-computed pairs is bit-identical to a from-scratch
   one. Two passes: count per-list lengths into [starts] (one slot up)
   and prefix-sum them into list offsets, then fill each list backward,
   so the last-merged link lands at the list's start and every list runs
   in strictly descending partner order. O(total links): no first-gap
   scans, no lookups. [pairs] must hold exactly the arrangement's pairs:
   ids increase with position, so its key order is the row-major order,
   and one in-order walk lines the tables up. *)
let derive_links_table results pairs =
  let n = Array.length results in
  let tables = Array.make (n * (n - 1) / 2) [||] in
  let count =
    Pair_map.fold
      (fun _ e k ->
        if k < Array.length tables then tables.(k) <- e;
        k + 1)
      pairs 0
  in
  if count <> Array.length tables then invalid_arg "Dod: missing pair table";
  let starts =
    Array.map
      (fun profile -> Array.make (Result_profile.num_types profile + 1) 0)
      results
  in
  let pair = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e = tables.(!pair) in
      incr pair;
      let ne = Array.length e / 2 in
      for k = 0 to ne - 1 do
        let a = e.(2 * k) in
        let gi_i = a lsr gi_bits and gi_j = a land gi_mask in
        starts.(i).(gi_i + 1) <- starts.(i).(gi_i + 1) + 1;
        starts.(j).(gi_j + 1) <- starts.(j).(gi_j + 1) + 1
      done
    done
  done;
  let total = ref 0 in
  Array.iter
    (fun row ->
      row.(0) <- !total;
      for gi = 1 to Array.length row - 1 do
        row.(gi) <- row.(gi - 1) + row.(gi)
      done;
      total := row.(Array.length row - 1))
    starts;
  let links = Array.make (2 * !total) 0 in
  (* cur.(i).(gi): one past the next free link of the list, filled
     backward from its end *)
  let cur = Array.map (fun row -> Array.sub row 1 (Array.length row - 1)) starts in
  let pair = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e = tables.(!pair) in
      incr pair;
      let ne = Array.length e / 2 in
      for k = 0 to ne - 1 do
        let a = e.(2 * k) and b = e.(2 * k + 1) in
        let gi_i = a lsr gi_bits and gi_j = a land gi_mask in
        let gap_i = b lsr gap_bits and gap_j = b land gap_mask in
        let p = cur.(i).(gi_i) - 1 in
        cur.(i).(gi_i) <- p;
        links.(2 * p) <- (j lsl gi_bits) lor gi_j;
        links.(2 * p + 1) <- b;
        let p = cur.(j).(gi_j) - 1 in
        cur.(j).(gi_j) <- p;
        links.(2 * p) <- (i lsl gi_bits) lor gi_i;
        links.(2 * p + 1) <- (gap_j lsl gap_bits) lor gap_i
      done
    done
  done;
  (links, starts)

(* The pair map over the arrangement [ids]. [cached] holds every pair of
   the results before position [fresh] (and perhaps pairs of results no
   longer present, which are dropped); the pairs touching a result at
   [fresh] or later are computed. A context is all-or-nothing — a
   partially linked table would silently change the objective — so a
   tripped deadline raises Deadline.Expired before a computed pair
   instead of returning something degraded. *)
let pair_map ?deadline params results ids ~cached ~fresh =
  let n = Array.length results in
  let survives id =
    let lo = ref 0 and hi = ref fresh in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ids.(mid) < id then lo := mid + 1 else hi := mid
    done;
    !lo < fresh && ids.(!lo) = id
  in
  let pairs =
    ref (Pair_map.filter (fun (lo, hi) _ -> survives lo && survives hi) cached)
  in
  let partner =
    Array.make
      (Array.fold_left (fun m p -> max m (Result_profile.num_types p)) 0 results)
      0
  in
  for j = fresh to n - 1 do
    for i = 0 to j - 1 do
      Deadline.check deadline;
      pairs :=
        Pair_map.add (ids.(i), ids.(j))
          (compute_pair params results partner i j)
          !pairs
    done
  done;
  !pairs

(* [domains] is ignored; it stays only for e2ebench/replay.ml. *)
let make_context ?(params = default_params) ?(weight = fun _ -> 1)
    ?domains:_ ?deadline results =
  if Array.length results < 2 then
    invalid_arg "Dod.make_context: need at least two results";
  Deadline.check deadline;
  let weights = Array.map (weights_row weight) results in
  let n = Array.length results in
  let ids = Array.init n (fun i -> i) in
  let pairs =
    pair_map ?deadline params results ids ~cached:Pair_map.empty ~fresh:0
  in
  let links, starts = derive_links_table results pairs in
  {
    params;
    weight_fn = weight;
    results;
    links;
    starts;
    weights;
    ids;
    next_id = n;
    pairs;
  }

(* {2 Deltas} *)

(* The context over [keep]'s survivors, in order, followed by [add]. The
   arrangement invariant holds by construction: survivors keep their
   strictly increasing ids and newcomers get fresh, larger ones, so every
   cached entry table keeps its orientation. Then the pairs the cache
   cannot serve (those touching new results, or all of them after a
   params change) are computed, and one link-table replay produces the
   result. The input shares its pair entry tables with the result and
   stays fully usable: sessions keep their history, and a deadline
   tripping mid-delta leaves it intact. Because [compute_pair] is a pure
   function of the two profiles and the params, and [derive_links_table]
   replays the canonical merge order, the result is bit-identical to
   [make_context] over the same result array. *)
let rearrange ?deadline ?params ?weight c ~keep ~add =
  Deadline.check deadline;
  let n = Array.length c.results in
  let keep = Array.of_list keep and add = Array.of_list add in
  Array.iteri
    (fun k i ->
      if i < 0 || i >= n || (k > 0 && i <= keep.(k - 1)) then
        invalid_arg "Dod.rearrange: keep is not strictly increasing in range")
    keep;
  if Array.length keep + Array.length add < 2 then
    invalid_arg "Dod.rearrange: need at least two results";
  let params = Option.value params ~default:c.params in
  (* n strictly increasing indices below n are all of them, in place *)
  if
    Array.length keep = n && Array.length add = 0 && params = c.params
    && Option.is_none weight
  then c
  else
    let pick kept fresh =
      Array.append (Array.map (fun i -> kept.(i)) keep) (Array.map fresh add)
    in
    let results = pick c.results Fun.id in
    let ids =
      Array.append
        (Array.map (fun i -> c.ids.(i)) keep)
        (Array.init (Array.length add) (fun k -> c.next_id + k))
    in
    let weight_fn = Option.value weight ~default:c.weight_fn in
    let weights =
      if Option.is_some weight then Array.map (weights_row weight_fn) results
      else pick c.weights (weights_row weight_fn)
    in
    let pairs =
      if params <> c.params then
        pair_map ?deadline params results ids ~cached:Pair_map.empty ~fresh:0
      else
        pair_map ?deadline params results ids ~cached:c.pairs
          ~fresh:(Array.length keep)
    in
    let links, starts = derive_links_table results pairs in
    {
      params;
      weight_fn;
      results;
      links;
      starts;
      weights;
      ids;
      next_id = c.next_id + Array.length add;
      pairs;
    }

(* {2 Observation helpers for the serve layer and tests} *)

(* Every link table is [derive_links_table]'s canonical layout, so equal
   link sequences mean equal buffers and offsets. *)
let equal_context a b =
  a.params = b.params
  && Array.length a.results = Array.length b.results
  && Array.for_all2 (fun (x : Result_profile.t) y -> x == y) a.results b.results
  && a.starts = b.starts
  && a.links = b.links
  && a.weights = b.weights

let num_pair_tables c = Pair_map.cardinal c.pairs

let approx_bytes c =
  (* rough heap words of the representation: the link buffer (2 packed
     words per link plus its header) and the per-result offset rows.
     Cached pair entries are separate packed storage (the boxed layout
     merged the tuples into the links at derivation), so they are billed:
     2 words per entry plus array header, plus ~8 words of map spine per
     node. The profiles the context reads are the caller's and are not
     charged here. *)
  let words = ref (64 + Array.length c.links + 1 + Array.length c.starts + 1) in
  Array.iter (fun row -> words := !words + Array.length row + 1) c.starts;
  Pair_map.iter
    (fun _ e -> words := !words + 8 + Array.length e + 1)
    c.pairs;
  Array.iter (fun w -> words := !words + Array.length w + 2) c.weights;
  !words * (Sys.word_size / 8)

let iter_links c ~i ~gi f =
  let s = c.starts.(i) in
  for k = s.(gi) to s.(gi + 1) - 1 do
    let a = c.links.(2 * k) and b = c.links.((2 * k) + 1) in
    f ~other:(a lsr gi_bits) ~gi_other:(a land gi_mask)
      ~gap_self:(b lsr gap_bits) ~gap_other:(b land gap_mask)
  done

let num_links c ~i ~gi =
  let s = c.starts.(i) in
  s.(gi + 1) - s.(gi)

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
  let s = c.starts.(i) in
  for gi = 0 to Array.length s - 2 do
    let q_self = Dfs.q di gi in
    if q_self >= 1 then
      for k = s.(gi) to s.(gi + 1) - 1 do
        let a = c.links.(2 * k) in
        if a lsr gi_bits = j then begin
          let q_other = Dfs.q dj (a land gi_mask) in
          if q_other >= 1 then begin
            let b = c.links.((2 * k) + 1) in
            if b lsr gap_bits <= q_self || b land gap_mask <= q_other then
              count := !count + c.weights.(i).(gi)
          end
        end
      done
  done;
  !count

let total c dfss =
  if Array.length dfss <> Array.length c.results then
    invalid_arg "Dod.total: arity mismatch";
  let sum = ref 0 in
  let n = Array.length c.results in
  for i = 0 to n - 1 do
    let s = c.starts.(i) in
    for gi = 0 to Array.length s - 2 do
      let q_self = Dfs.q dfss.(i) gi in
      if q_self >= 1 then begin
        let w = c.weights.(i).(gi) in
        for k = s.(gi) to s.(gi + 1) - 1 do
          let a = c.links.(2 * k) in
          let other = a lsr gi_bits in
          (* Count each unordered pair once, from the lower index. *)
          if other > i then begin
            let q_other = Dfs.q dfss.(other) (a land gi_mask) in
            if q_other >= 1 then begin
              let b = c.links.((2 * k) + 1) in
              if b lsr gap_bits <= q_self || b land gap_mask <= q_other then
                sum := !sum + w
            end
          end
        done
      end
    done
  done;
  !sum

let delta_for_type c ~dfss ~i ~gi ~old_q ~new_q =
  let delta = ref 0 in
  let w = c.weights.(i).(gi) in
  let s = c.starts.(i) in
  for k = s.(gi) to s.(gi + 1) - 1 do
    let a = c.links.(2 * k) in
    let q_other = Dfs.q dfss.(a lsr gi_bits) (a land gi_mask) in
    if q_other >= 1 then begin
      let b = c.links.((2 * k) + 1) in
      let gap_self = b lsr gap_bits and gap_other = b land gap_mask in
      let before = old_q >= 1 && (gap_self <= old_q || gap_other <= q_other) in
      let after = new_q >= 1 && (gap_self <= new_q || gap_other <= q_other) in
      if before && not after then delta := !delta - w
      else if (not before) && after then delta := !delta + w
    end
  done;
  !delta

type witness = {
  feature : Feature.t;
  measure_i : float;
  measure_j : float;
}

(* The measures of the feature with [value_id] in type [gi] of result i
   and type [gi_other] of result j: the same type, found by the link. *)
let measures_of c ~i ~j ~gi ~gi_other value_id =
  let measure r gi =
    let p = c.results.(r) in
    measure_of c.params
      (Result_profile.count_of (Result_profile.type_info p gi) value_id)
      (Result_profile.type_population p gi)
  in
  (measure i gi, measure j gi_other)

let find_link c ~i ~gi ~j =
  let s = c.starts.(i) in
  let rec scan k =
    if k >= s.(gi + 1) then None
    else
      let a = c.links.(2 * k) in
      if a lsr gi_bits = j then
        let b = c.links.((2 * k) + 1) in
        Some
          {
            other = j;
            gi_other = a land gi_mask;
            gap_self = b lsr gap_bits;
            gap_other = b land gap_mask;
          }
      else scan (k + 1)
  in
  scan s.(gi)

let witness c ~i ~j di dj ~gi =
  match find_link c ~i ~gi ~j with
  | None -> None
  | Some link ->
    let q_self = Dfs.q di gi and q_other = Dfs.q dj link.gi_other in
    if not (differentiable link ~q_self ~q_other) then None
    else
      let fi =
        if link.gap_self <= q_self then
          (Result_profile.type_info c.results.(i) gi).features.(link.gap_self - 1)
        else
          (Result_profile.type_info c.results.(j) link.gi_other).features.(link
                                                                             .gap_other
                                                                           - 1)
      in
      let measure_i, measure_j =
        measures_of c ~i ~j ~gi ~gi_other:link.gi_other fi.value_id
      in
      Some { feature = fi.feature; measure_i; measure_j }

let explain_pair c ~i ~j di dj =
  let acc = ref [] in
  Array.iteri
    (fun gi _ ->
      match witness c ~i ~j di dj ~gi with
      | Some w ->
        acc := ((Result_profile.type_info c.results.(i) gi).ftype, w) :: !acc
      | None -> ())
    c.weights.(i);
  List.rev !acc

(* Both gap fields at the sentinel: the packed word of a never-
   differentiable link. *)
let inf_both = (infinity_gap lsl gap_bits) lor infinity_gap

let upper_bound_pair c ~i ~j =
  let sum = ref 0 in
  let s = c.starts.(i) in
  for gi = 0 to Array.length s - 2 do
    for k = s.(gi) to s.(gi + 1) - 1 do
      if c.links.(2 * k) lsr gi_bits = j && c.links.((2 * k) + 1) <> inf_both
      then sum := !sum + c.weights.(i).(gi)
    done
  done;
  !sum

(* {2 Serialization}

   The canonical dump tests digest: params + stable ids + the cached pair
   entry tables, i.e. exactly the first-gap data. Everything else in a
   context is a pure function of the profiles ([weights_row]) or of the
   pairs map itself ([derive_links_table]). All values are 64-bit LE
   words — packed entry word B reaches 2^62, past int32. *)

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
