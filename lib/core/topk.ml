let weighted_fill ~key ~limit dfs =
  let profile = Dfs.profile dfs in
  let n = Result_profile.num_types profile in
  let q = Dfs.to_q_array dfs in
  let features =
    Array.init n (fun gi -> (Result_profile.type_info profile gi).features)
  in
  (* Types of an entity sit in one global range in significance-descending
     order, so the strictly more significant types of [gi] — the ones
     {!Dfs.can_open} requires — are the global range [lo.(gi), hi.(gi)):
     from the entity's first type to the first type of [gi]'s class. *)
  let lo = Array.make n 0 and hi = Array.make n 0 in
  let base = ref 0 in
  Array.iter
    (fun (e : Result_profile.entity_info) ->
      Array.iter
        (fun (start, len) ->
          for t = start to start + len - 1 do
            lo.(!base + t) <- !base;
            hi.(!base + t) <- !base + start
          done)
        e.classes;
      base := !base + Array.length e.types)
    profile.Result_profile.entities;
  let can_open gi =
    let ok = ref true in
    for k = lo.(gi) to hi.(gi) - 1 do
      if q.(k) = 0 then ok := false
    done;
    !ok
  in
  let size = ref (Array.fold_left ( + ) 0 q) in
  let continue = ref true in
  while !continue && !size < limit do
    (* Best next feature: highest key among heads of open types and heads
       of openable types; ties by global type order (canonical). *)
    let best = ref (-1) and best_key = ref 0 in
    for gi = 0 to n - 1 do
      let qi = q.(gi) in
      if qi < Array.length features.(gi) && (qi > 0 || can_open gi) then begin
        let k = key gi features.(gi).(qi).Result_profile.count in
        if !best < 0 || k > !best_key then begin
          best := gi;
          best_key := k
        end
      end
    done;
    if !best < 0 then continue := false
    else begin
      q.(!best) <- q.(!best) + 1;
      incr size
    end
  done;
  Dfs.of_q_array profile q

let fill ~limit dfs = weighted_fill ~key:(fun _ count -> count) ~limit dfs

let generate_one ~limit profile = fill ~limit (Dfs.empty profile)

let generate context ~limit =
  Array.mapi
    (fun i profile ->
      (* Greedy key = weight x count, so user-prioritized types fill first;
         with uniform weights this is plain count order. *)
      let key gi count = Dod.weight_of context ~i ~gi * count in
      weighted_fill ~key ~limit (Dfs.empty profile))
    (Dod.results context)
