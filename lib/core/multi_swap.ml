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

(* [c.(q)], for q = 0 .. the type's feature count, is the number of pairs
   (i, j) differentiable on this type when result i selects its q-prefix,
   given the other results' current selections: one bucket per minimal
   prefix length ({!Dod.threshold_q}), then a running sum. Infinite
   thresholds fall past the last bucket. *)
let curve_for context dfss i gi =
  let qmax =
    Array.length
      (Result_profile.type_info (Dod.results context).(i) gi).features
  in
  let c = Array.make (qmax + 1) 0 in
  Dod.iter_links context ~i ~gi
    (fun ~other ~gi_other ~gap_self ~gap_other ->
      let q_other = Dfs.q dfss.(other) gi_other in
      (* Dod.threshold_q over the unpacked fields, without the record *)
      let a =
        if q_other < 1 then Dod.infinity_gap
        else if gap_other <= q_other then 1
        else gap_self
      in
      if a <= qmax then c.(a) <- c.(a) + 1);
  for q = 1 to qmax do
    c.(q) <- c.(q) + c.(q - 1)
  done;
  c

(* All curves of result [i] at once — the unit the per-round cache
   stores. *)
let compute_curves context dfss i =
  let nt = Result_profile.num_types (Dod.results context).(i) in
  Array.init nt (fun gi -> curve_for context dfss i gi)

(* Spread bonus of a selected type: 1 plus the number of other results that
   share the type, so zero-gain spreading prefers types the others can align
   on. Static per (result, type), which keeps the potential argument above
   valid. *)
let spread_bonus context ~i ~gi = 1 + Dod.num_links context ~i ~gi

(* The packed gain table of one response: [g.(gi).(q)] is the DP value of
   selecting the q-prefix of type [gi] — DoD gain times weight times
   [type_tie_base], plus the spread bonus when anything is selected. *)
let packed_gains ~spread context curves i =
  Array.mapi
    (fun gi c ->
      let w = Dod.weight_of context ~i ~gi * type_tie_base in
      let bonus = if spread then spread_bonus context ~i ~gi else 0 in
      Array.mapi (fun q n -> if q = 0 then 0 else (n * w) + bonus) c)
    curves

(* Packed gain of a DFS for result i given the others — the same objective
   the DP maximizes, so adoption decisions compare like with like. *)
let packed_sum g dfs =
  let sum = ref 0 in
  for gi = 0 to Array.length g - 1 do
    sum := !sum + g.(gi).(Dfs.q dfs gi)
  done;
  !sum

(* ---- Knapsack over the types of one significance class ---------------- *)

(* Items are the [k] types at global indices [first ..]. Item [t] takes q in
   [qmin .. #features] features for gain [g.(first + t).(q)]. Layers are
   kept for reconstruction; budget has at-most semantics (layer 0 is
   all-zero). *)
let class_knapsack ~qmin g ~first ~k ~budget =
  let layers = Array.make_matrix (k + 1) (budget + 1) neg_inf in
  Array.fill layers.(0) 0 (budget + 1) 0;
  for t = 1 to k do
    let gt = g.(first + t - 1) in
    let qmax = Array.length gt - 1 in
    let prev_layer = layers.(t - 1) and layer = layers.(t) in
    for b = 0 to budget do
      let best = ref neg_inf in
      for q = qmin to min qmax b do
        let prev = prev_layer.(b - q) in
        if prev > neg_inf then begin
          let v = prev + gt.(q) in
          if v > !best then best := v
        end
      done;
      (* When qmin = 1 and the item cannot fit, the loop is empty and the
         slot stays infeasible. *)
      layer.(b) <- !best
    done
  done;
  layers

(* Reconstruct per-item q choices achieving layers.(k).(budget), writing
   item t's choice to [qs.(first + t)]. *)
let class_choices ~qmin g ~first ~k layers budget qs =
  let b = ref budget in
  for t = k downto 1 do
    let gt = g.(first + t - 1) in
    let target = layers.(t).(!b) in
    let q_hi = min (Array.length gt - 1) !b in
    let found = ref false in
    let q = ref qmin in
    while (not !found) && !q <= q_hi do
      let prev = layers.(t - 1).(!b - !q) in
      if prev > neg_inf && prev + gt.(!q) = target then begin
        qs.(first + t - 1) <- !q;
        b := !b - !q;
        found := true
      end
      else incr q
    done;
    if not !found then assert false
  done

(* ---- One entity: prefix-of-classes recursion -------------------------- *)

type entity_plan = {
  f : int array array;  (** f.(ci).(b): best gain from classes ci.. *)
  any_layers : int array array array;  (** per class: variant-A layers *)
  full_layers : int array array array;
      (** per class: variant-B layers; empty for the last class *)
  class_ranges : (int * int) array;  (** (global start, len) per class *)
}

let plan_entity ~limit g ~base (entity : Result_profile.entity_info) =
  let class_ranges =
    Array.map (fun (start, len) -> (base + start, len)) entity.classes
  in
  let nc = Array.length class_ranges in
  let any_layers =
    Array.map
      (fun (first, k) -> class_knapsack ~qmin:0 g ~first ~k ~budget:limit)
      class_ranges
  in
  (* The last class has no variant B: with nothing below it, variant A
     admits every variant-B selection at no larger budget, so its f row
     is its variant-A row and its variant-B layers would never be read. *)
  let full_layers =
    Array.mapi
      (fun ci (first, k) ->
        if ci = nc - 1 then [||]
        else class_knapsack ~qmin:1 g ~first ~k ~budget:limit)
      class_ranges
  in
  let f = Array.make_matrix (nc + 1) (limit + 1) 0 in
  for ci = nc - 1 downto 0 do
    let k = snd class_ranges.(ci) in
    let any = any_layers.(ci).(k) and row = f.(ci) in
    if ci = nc - 1 then Array.blit any 0 row 0 (limit + 1)
    else begin
      let full = full_layers.(ci).(k) and below = f.(ci + 1) in
      for b = 0 to limit do
        let best = ref any.(b) in
        for m = 0 to b do
          let full = full.(m) in
          if full > neg_inf then begin
            let v = full + below.(b - m) in
            if v > !best then best := v
          end
        done;
        row.(b) <- !best
      done
    end
  done;
  { f; any_layers; full_layers; class_ranges }

(* Reconstruct the per-type q choices of one entity given its allocated
   budget, writing them to [qs] at global type indices. *)
let reconstruct_entity g plan budget qs =
  let nc = Array.length plan.class_ranges in
  let rec walk ci b =
    if ci < nc then begin
      let first, k = plan.class_ranges.(ci) in
      if plan.f.(ci).(b) = plan.any_layers.(ci).(k).(b) then
        (* Variant A: this class is the last one used. *)
        class_choices ~qmin:0 g ~first ~k plan.any_layers.(ci) b qs
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
        class_choices ~qmin:1 g ~first ~k plan.full_layers.(ci) !m qs;
        walk (ci + 1) (b - !m)
      end
    end
  in
  walk 0 budget

(* ---- Best response ----------------------------------------------------- *)

(* The optimal valid DFS of result [i] under the packed gain table [g]. *)
let respond context ~limit g i =
  let profile = (Dod.results context).(i) in
  (* The tables are indexed by budget, so they are sized by what the
     result can hold, not by the caller's bound: no DFS has more than
     [total_features] features, and a cell at budget b reads only smaller
     budgets, so every budget past it would repeat the last cell. *)
  let limit = min limit profile.Result_profile.total_features in
  let entities = profile.Result_profile.entities in
  let ne = Array.length entities in
  let plans =
    let base = ref 0 in
    Array.map
      (fun (entity : Result_profile.entity_info) ->
        let plan = plan_entity ~limit g ~base:!base entity in
        base := !base + Array.length entity.types;
        plan)
      entities
  in
  (* Outer knapsack across entities: entity ei with allocated budget b gains
     plans.(ei).f.(0).(b). *)
  let outer = Array.make_matrix (ne + 1) (limit + 1) 0 in
  for e = 1 to ne do
    let prev = outer.(e - 1) and gains = plans.(e - 1).f.(0) in
    for b = 0 to limit do
      let best = ref neg_inf in
      for m = 0 to b do
        let v = prev.(b - m) + gains.(m) in
        if v > !best then best := v
      done;
      outer.(e).(b) <- !best
    done
  done;
  (* Choose the smallest total budget achieving the optimum (ties toward
     fewer features). *)
  let best_value = outer.(ne).(limit) in
  let q = Array.make (Array.length g) 0 in
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
    reconstruct_entity g plans.(e - 1) !m q;
    budget := !budget - !m
  done;
  Dfs.of_q_array profile q

let best_response ?(spread = true) ?curves context ~limit dfss i =
  let curves =
    match curves with
    | Some curves -> curves
    | None -> compute_curves context dfss i
  in
  respond context ~limit (packed_gains ~spread context curves i) i

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

let generate_with_stats ?init ?(spread = true) ?deadline context ~limit =
  let dfss = prepare ?init context ~limit in
  let n = Array.length dfss in
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
          (* One gain table serves the response and both sides of the
             adoption check. *)
          let g =
            packed_gains ~spread context (compute_curves context dfss i) i
          in
          (* Pad the response to the full budget: extra features never reduce
             the packed objective (gains and the type bonus are monotone) and
             keep the summaries budget-filling like every other method. *)
          let candidate = Topk.fill ~limit (respond context ~limit g i) in
          if packed_sum g candidate > packed_sum g dfss.(i) then begin
            dfss.(i) <- candidate;
            incr iterations;
            improved_in_round := true
          end
        end
      end
    done
  done;
  (dfss, { iterations = !iterations; rounds = !rounds;
           converged = not !stopped })

let generate ?init ?spread ?deadline context ~limit =
  fst (generate_with_stats ?init ?spread ?deadline context ~limit)
