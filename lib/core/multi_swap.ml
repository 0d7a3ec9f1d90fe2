type stats = { iterations : int; rounds : int; converged : bool }

let neg_inf = min_int / 4

(* Values in the DP are packed as [dod_gain * type_tie_base + spread bonus],
   where a selected type's bonus is 1 plus the number of other results
   sharing the type: at equal DoD gain, best responses prefer touching more
   distinct feature types, and among those, types the other results can
   align on. Pure best responses stall in poor equilibria on corpora with
   all-tied significances: if every current DFS shows only actors, no
   unilateral reshaping gains DoD by selecting titles nobody else shows, yet
   the all-titles configuration dominates. Spreading at zero cost seeds the
   shared types that later responses can cash in on, and termination is
   preserved — each adopted response strictly increases the global potential
   Φ = type_tie_base · Σ_{i<j} DoD(D_i,D_j) + Σ_i Σ_{t∈D_i} bonus_i(t)
   (bonuses are static per (result, type)), which is bounded. *)
let type_tie_base = 4096

(* ---- Per-type gain curves -------------------------------------------- *)

(* Sorted array of minimal prefix lengths at which each pair (i, j) becomes
   differentiable on this type, infinite thresholds dropped. The gain of
   selecting a q-prefix is the number of thresholds <= q. *)
let thresholds_for context dfss i gi =
  let acc = ref [] in
  Dod.iter_links context ~i ~gi
    (fun ~other ~gi_other ~gap_self ~gap_other ->
      let q_other = Dfs.q dfss.(other) gi_other in
      (* Dod.threshold_q over the unpacked fields, without the record *)
      let a =
        if q_other < 1 then Dod.infinity_gap
        else if gap_other <= q_other then 1
        else gap_self
      in
      if a <> Dod.infinity_gap then acc := a :: !acc);
  let thresholds = Array.of_list !acc in
  Array.sort Int.compare thresholds;
  thresholds

let gain_at thresholds q =
  (* thresholds is sorted ascending; count entries <= q. *)
  let n = Array.length thresholds in
  let rec count k = if k < n && thresholds.(k) <= q then count (k + 1) else k in
  count 0

(* All threshold arrays of result [i] at once — the unit the per-round
   cache stores. *)
let compute_thresholds context dfss i =
  let nt = Result_profile.num_types (Dod.results context).(i) in
  Array.init nt (fun gi -> thresholds_for context dfss i gi)

(* ---- Knapsack over the types of one significance class ---------------- *)

(* Items are within-class type positions. Item [t] takes q in
   [qmin .. qmax.(t)] features for gain [gain t q]. Layers are kept for
   reconstruction; budget has at-most semantics (layer 0 is all-zero). *)
let class_knapsack ~qmin ~qmax ~gain ~budget =
  let k = Array.length qmax in
  let layers = Array.make_matrix (k + 1) (budget + 1) neg_inf in
  Array.fill layers.(0) 0 (budget + 1) 0;
  for t = 1 to k do
    for b = 0 to budget do
      let best = ref neg_inf in
      let q_hi = min qmax.(t - 1) b in
      for q = qmin to q_hi do
        let prev = layers.(t - 1).(b - q) in
        if prev > neg_inf then begin
          let v = prev + gain (t - 1) q in
          if v > !best then best := v
        end
      done;
      (* qmin = 0 case is included in the loop when q_hi >= 0; when qmin = 1
         and the item cannot fit, the slot stays infeasible. *)
      layers.(t).(b) <- !best
    done
  done;
  layers

(* Reconstruct per-item q choices achieving layers.(k).(budget). *)
let class_choices ~qmin ~qmax ~gain layers budget =
  let k = Array.length qmax in
  let qs = Array.make k 0 in
  let b = ref budget in
  for t = k downto 1 do
    let target = layers.(t).(!b) in
    let q_hi = min qmax.(t - 1) !b in
    let found = ref false in
    let q = ref qmin in
    while (not !found) && !q <= q_hi do
      let prev = layers.(t - 1).(!b - !q) in
      if prev > neg_inf && prev + gain (t - 1) !q = target then begin
        qs.(t - 1) <- !q;
        b := !b - !q;
        found := true
      end
      else incr q
    done;
    if not !found then assert false
  done;
  qs

(* ---- One entity: prefix-of-classes recursion -------------------------- *)

type entity_plan = {
  f : int array array;  (** f.(ci).(b): best gain from classes ci.. *)
  any_layers : int array array array;  (** per class: variant-A layers *)
  full_layers : int array array array;  (** per class: variant-B layers *)
  class_ranges : (int * int) array;  (** (start, len) within the entity *)
  qmaxes : int array array;  (** per class, per item *)
}

let plan_entity ~limit ~gain_for (entity : Result_profile.entity_info) =
  let nc = Array.length entity.classes in
  let qmaxes =
    Array.map
      (fun (start, len) ->
        Array.init len (fun t ->
            Array.length entity.types.(start + t).features))
      entity.classes
  in
  let gains =
    Array.map
      (fun (start, len) -> Array.init len (fun t -> gain_for (start + t)))
      entity.classes
  in
  let any_layers =
    Array.init nc (fun ci ->
        class_knapsack ~qmin:0 ~qmax:qmaxes.(ci)
          ~gain:(fun t q -> gains.(ci).(t) q)
          ~budget:limit)
  in
  let full_layers =
    Array.init nc (fun ci ->
        class_knapsack ~qmin:1 ~qmax:qmaxes.(ci)
          ~gain:(fun t q -> gains.(ci).(t) q)
          ~budget:limit)
  in
  let f = Array.make_matrix (nc + 1) (limit + 1) 0 in
  for ci = nc - 1 downto 0 do
    let k = Array.length qmaxes.(ci) in
    for b = 0 to limit do
      let best = ref any_layers.(ci).(k).(b) in
      for m = 0 to b do
        let full = full_layers.(ci).(k).(m) in
        if full > neg_inf then begin
          let v = full + f.(ci + 1).(b - m) in
          if v > !best then best := v
        end
      done;
      f.(ci).(b) <- !best
    done
  done;
  { f; any_layers; full_layers; class_ranges = entity.classes; qmaxes }

(* Reconstruct the per-type q choices of one entity given its allocated
   budget. Returns q indexed by within-entity type position. *)
let reconstruct_entity ~gain_for plan budget =
  let nc = Array.length plan.class_ranges in
  let total_types =
    Array.fold_left (fun acc (_, len) -> acc + len) 0 plan.class_ranges
  in
  let qs = Array.make total_types 0 in
  let rec walk ci b =
    if ci < nc then begin
      let start, len = plan.class_ranges.(ci) in
      let k = len in
      let gain t q = gain_for (start + t) q in
      if plan.f.(ci).(b) = plan.any_layers.(ci).(k).(b) then begin
        (* Variant A: this class is the last one used. *)
        let choice =
          class_choices ~qmin:0 ~qmax:plan.qmaxes.(ci) ~gain
            plan.any_layers.(ci) b
        in
        Array.iteri (fun t q -> qs.(start + t) <- q) choice
      end
      else begin
        (* Variant B: find the split budget m. *)
        let m = ref 0 in
        let found = ref false in
        while (not !found) && !m <= b do
          let full = plan.full_layers.(ci).(k).(!m) in
          if full > neg_inf && full + plan.f.(ci + 1).(b - !m) = plan.f.(ci).(b)
          then found := true
          else incr m
        done;
        if not !found then assert false;
        let choice =
          class_choices ~qmin:1 ~qmax:plan.qmaxes.(ci) ~gain
            plan.full_layers.(ci) !m
        in
        Array.iteri (fun t q -> qs.(start + t) <- q) choice;
        walk (ci + 1) (b - !m)
      end
    end
  in
  walk 0 budget;
  qs

(* ---- Best response ----------------------------------------------------- *)

(* Spread bonus of a selected type: 1 plus the number of other results that
   share the type, so zero-gain spreading prefers types the others can align
   on. Static per (result, type), which keeps the potential argument above
   valid. *)
let spread_bonus context ~i ~gi = 1 + Dod.num_links context ~i ~gi

let best_response ?(spread = true) ?thresholds context ~limit dfss i =
  let profile = (Dod.results context).(i) in
  (* The tables are indexed by budget, so they are sized by what the
     result can hold, not by the caller's bound: no DFS has more than
     [total_features] features, and a cell at budget b reads only smaller
     budgets, so every budget past it would repeat the last cell. *)
  let limit = min limit profile.Result_profile.total_features in
  let nt = Result_profile.num_types profile in
  let thresholds =
    match thresholds with
    | Some arrays -> arrays
    | None -> compute_thresholds context dfss i
  in
  let gain_global gi q =
    if q = 0 then 0
    else
      (gain_at thresholds.(gi) q * Dod.weight_of context ~i ~gi * type_tie_base)
      + (if spread then spread_bonus context ~i ~gi else 0)
  in
  let entities = profile.Result_profile.entities in
  let ne = Array.length entities in
  let plans =
    Array.mapi
      (fun ei entity ->
        let base = Result_profile.global_index profile ~entity_index:ei ~type_index:0 in
        plan_entity ~limit ~gain_for:(fun ti q -> gain_global (base + ti) q) entity)
      entities
  in
  (* Outer knapsack across entities: entity ei with allocated budget b gains
     plans.(ei).f.(0).(b). *)
  let outer = Array.make_matrix (ne + 1) (limit + 1) 0 in
  for e = 1 to ne do
    for b = 0 to limit do
      let best = ref neg_inf in
      for m = 0 to b do
        let v = outer.(e - 1).(b - m) + plans.(e - 1).f.(0).(m) in
        if v > !best then best := v
      done;
      outer.(e).(b) <- !best
    done
  done;
  (* Choose the smallest total budget achieving the optimum (ties toward
     fewer features). *)
  let best_value = outer.(ne).(limit) in
  let q = Array.make nt 0 in
  let b = ref limit in
  while !b > 0 && outer.(ne).(!b - 1) = best_value do
    decr b
  done;
  let budget = ref !b in
  for e = ne downto 1 do
    (* Find the allocation m for entity e-1. *)
    let m = ref 0 in
    let found = ref false in
    while (not !found) && !m <= !budget do
      if outer.(e - 1).(!budget - !m) + plans.(e - 1).f.(0).(!m) = outer.(e).(!budget)
      then found := true
      else incr m
    done;
    if not !found then assert false;
    let base = Result_profile.global_index profile ~entity_index:(e - 1) ~type_index:0 in
    let entity_qs =
      reconstruct_entity
        ~gain_for:(fun ti qq -> gain_global (base + ti) qq)
        plans.(e - 1) !m
    in
    Array.iteri (fun ti qq -> q.(base + ti) <- qq) entity_qs;
    budget := !budget - !m
  done;
  Dfs.of_q_array profile q

(* Packed gain of a DFS for result i given the others — the same objective
   the DP maximizes, so adoption decisions compare like with like. Without
   [thresholds] every array is recomputed per call (the pre-cache
   behavior, kept as the ablation baseline for the bench). *)
let packed_gain ?(spread = true) ?thresholds context dfss i dfs =
  let profile = (Dod.results context).(i) in
  let nt = Result_profile.num_types profile in
  let thresholds_of gi =
    match thresholds with
    | Some arrays -> arrays.(gi)
    | None -> thresholds_for context dfss i gi
  in
  let sum = ref 0 in
  for gi = 0 to nt - 1 do
    let q = Dfs.q dfs gi in
    if q > 0 then
      sum :=
        !sum
        + gain_at (thresholds_of gi) q
          * Dod.weight_of context ~i ~gi * type_tie_base
        + (if spread then spread_bonus context ~i ~gi else 0)
  done;
  !sum

let prepare ?init context ~limit =
  match init with
  | Some dfss ->
    Array.iteri
      (fun i d ->
        if not (Dfs.is_valid ~limit d) then
          invalid_arg
            (Printf.sprintf "Multi_swap.generate: invalid initial DFS %d" i))
      dfss;
    Array.copy dfss
  | None -> Topk.generate context ~limit

let generate_with_stats ?init ?spread ?(cache = true) ?deadline context
    ~limit =
  let dfss = prepare ?init context ~limit in
  let n = Array.length dfss in
  (* Threshold cache. Result [i]'s threshold arrays depend only on the
     OTHER results' current selections, so an entry stays exact until some
     j <> i adopts a new response: each adoption bumps [version] and stamps
     [adopted_at], and an entry computed at stamp [s] is valid while
     [adopted_at.(j) <= s] for every other [j]. In particular result i's
     own adoption never invalidates its own entry, and once a round stops
     adopting, the fixpoint check reuses every entry. The cached arrays are
     what best_response and both packed_gain calls share — previously
     packed_gain silently recomputed every array per adoption check. *)
  let version = ref 0 in
  let adopted_at = Array.make n 0 in
  let cached = Array.make n ([||] : int array array) in
  let cached_at = Array.make n (-1) in
  let thresholds_of i =
    let valid =
      cached_at.(i) >= 0
      &&
      let s = cached_at.(i) in
      let ok = ref true in
      for j = 0 to n - 1 do
        if j <> i && adopted_at.(j) > s then ok := false
      done;
      !ok
    in
    if not valid then begin
      cached.(i) <- compute_thresholds context dfss i;
      cached_at.(i) <- !version
    end;
    cached.(i)
  in
  let iterations = ref 0 in
  let rounds = ref 0 in
  (* Anytime loop: [dfss] is a valid configuration after every adopted
     response (it starts as Topk and only ever swaps in valid responses),
     so when the deadline trips — polled before each per-result response,
     the expensive unit — iteration just stops and the best-so-far stands,
     flagged [converged = false]. With no deadline the path is untouched
     and outputs stay bit-identical to an undeadlined run. *)
  let stopped = ref false in
  let improved_in_round = ref true in
  while !improved_in_round && not !stopped do
    improved_in_round := false;
    incr rounds;
    Failpoint.hit "compare.round";
    for i = 0 to n - 1 do
      if not !stopped then begin
        if Deadline.over deadline then stopped := true
        else begin
          let thresholds = if cache then Some (thresholds_of i) else None in
          (* Pad the response to the full budget: extra features never reduce
             the packed objective (gains and the type bonus are monotone) and
             keep the summaries budget-filling like every other method. *)
          let candidate =
            Topk.fill ~limit
              (best_response ?spread ?thresholds context ~limit dfss i)
          in
          let cur = packed_gain ?spread ?thresholds context dfss i dfss.(i) in
          let cand_gain =
            packed_gain ?spread ?thresholds context dfss i candidate
          in
          if cand_gain > cur then begin
            dfss.(i) <- candidate;
            incr version;
            adopted_at.(i) <- !version;
            incr iterations;
            improved_in_round := true
          end
        end
      end
    done
  done;
  (dfss, { iterations = !iterations; rounds = !rounds;
           converged = not !stopped })

let generate ?init ?spread ?cache ?deadline context ~limit =
  fst (generate_with_stats ?init ?spread ?cache ?deadline context ~limit)
