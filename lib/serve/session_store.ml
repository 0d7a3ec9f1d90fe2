type 'a entry = { value : 'a; mutable last_used : float }

type 'a event =
  | Created of { id : string; value : 'a; at : float }
  | Updated of { id : string; origin : string; value : 'a; at : float }
  | Removed of { id : string; value : 'a }
  | Expired of { id : string; value : 'a }
  | Evicted of { id : string; value : 'a }

type 'a t = {
  table : (string, 'a entry) Hashtbl.t;
  mutable next : int;
  ttl_s : float option;
  capacity : int option;
  now : unit -> float;
  on_event : ('a event -> unit) option;
  mutable expired_total : int;
  mutable evicted_total : int;
}

let create ?ttl_s ?capacity ?(now = Unix.gettimeofday) ?on_event () =
  (match ttl_s with
  | Some ttl when not (ttl > 0.) ->
    invalid_arg "Session_store.create: ttl_s must be positive"
  | _ -> ());
  (match capacity with
  | Some c when c < 1 ->
    invalid_arg "Session_store.create: capacity must be positive"
  | _ -> ());
  {
    table = Hashtbl.create 16;
    next = 1;
    ttl_s;
    capacity;
    now;
    on_event;
    expired_total = 0;
    evicted_total = 0;
  }

(* Fired immediately after the table change, so the durability hook sees
   mutations in effect order, and a mutating call returns only after its
   event was handled (journaled). *)
let emit t ev = match t.on_event with None -> () | Some f -> f ev

(* Hygiene on access: first drop entries idle past the TTL, then — only
   when about to insert — evict the least-recently-used survivors down to
   capacity. Scans are O(n), fine for the session counts a single daemon
   holds. *)
let purge_expired t =
  match t.ttl_s with
  | None -> ()
  | Some ttl ->
    let now = t.now () in
    let dead =
      Hashtbl.fold
        (fun id e acc ->
          if now -. e.last_used > ttl then (id, e.value) :: acc else acc)
        t.table []
    in
    List.iter
      (fun (id, value) ->
        Hashtbl.remove t.table id;
        t.expired_total <- t.expired_total + 1;
        emit t (Expired { id; value }))
      dead

let evict_to_capacity t ~incoming =
  match t.capacity with
  | None -> ()
  | Some cap ->
    while Hashtbl.length t.table + incoming > cap do
      (* Oldest last_used loses; ties break toward the smaller id so the
         order is deterministic under a frozen test clock. *)
      let victim =
        Hashtbl.fold
          (fun id e acc ->
            match acc with
            | None -> Some (id, e)
            | Some (bid, best) ->
              if
                e.last_used < best.last_used
                || (e.last_used = best.last_used && compare id bid < 0)
              then Some (id, e)
              else acc)
          t.table None
      in
      match victim with
      | None -> assert false (* empty yet over capacity: impossible *)
      | Some (id, e) ->
        Hashtbl.remove t.table id;
        t.evicted_total <- t.evicted_total + 1;
        emit t (Evicted { id; value = e.value })
    done

let add t value =
  purge_expired t;
  evict_to_capacity t ~incoming:1;
  let id = Printf.sprintf "s%d" t.next in
  t.next <- t.next + 1;
  let at = t.now () in
  Hashtbl.replace t.table id { value; last_used = at };
  emit t (Created { id; value; at });
  id

let find t id =
  purge_expired t;
  match Hashtbl.find_opt t.table id with
  | None -> None
  | Some e ->
    e.last_used <- t.now ();
    Some e.value

let set ?(origin = "set") t id value =
  if not (Hashtbl.mem t.table id) then
    invalid_arg ("Session_store.set: unknown id " ^ id);
  let at = t.now () in
  Hashtbl.replace t.table id { value; last_used = at };
  emit t (Updated { id; origin; value; at })

let remove t id =
  match Hashtbl.find_opt t.table id with
  | Some e ->
    Hashtbl.remove t.table id;
    emit t (Removed { id; value = e.value });
    true
  | None -> false

let drop t id =
  match Hashtbl.find_opt t.table id with
  | Some e ->
    Hashtbl.remove t.table id;
    Some e.value
  | None -> None

(* Numeric suffix of "sN" ids, for collision-free id allocation after
   recovery; foreign ids (never minted by [add]) don't constrain it. *)
let id_number id =
  if String.length id > 1 && id.[0] = 's' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let ensure_next t n = t.next <- max t.next n

let restore t ~id ~last_used value =
  Hashtbl.replace t.table id { value; last_used };
  match id_number id with
  | Some n -> t.next <- max t.next (n + 1)
  | None -> ()

let count t =
  purge_expired t;
  Hashtbl.length t.table

let ids t =
  purge_expired t;
  Hashtbl.fold (fun id _ acc -> id :: acc) t.table [] |> List.sort compare

let expired_total t = t.expired_total
let evicted_total t = t.evicted_total

let fold t ~init ~f =
  Hashtbl.fold
    (fun id e acc -> f id e.value ~last_used:e.last_used acc)
    t.table init
