(* Refcounted cross-session intern table for warm contexts.

   One entry per canonical context key (Api.canonical_key ~scope:Context):
   the physically shared (profiles, context) pair, a refcount of the warm
   sessions holding it, and its approx_bytes. N sessions over the same
   corpus and parameters pin one entry; /compare's warm-context reuse
   reads the same table without taking refs, so the pool the LRU cache
   used to hold and the pool sessions pin are one population under one
   byte ledger.

   Eviction only ever touches unpinned entries (refs = 0): while the
   ledger exceeds the byte budget, or unpinned entries exceed the cache
   capacity, the least-recently-used unpinned entry is dropped. Pinned
   bytes over budget are the serve layer's problem — it demotes sessions,
   whose releases turn entries unpinned and re-enter them here.

   Locking: [mutex] is a leaf. Every operation is O(entries) bookkeeping
   under it and calls nothing back — callers may hold the server's
   session lock; this module never acquires it. *)

type entry = {
  e_profiles : Result_profile.t array;
  e_context : Dod.context;
  e_bytes : int;
  mutable refs : int;
  mutable last_used : float;
}

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_bytes : int option;
  cache_capacity : int;  (* bound on unpinned (refs = 0) entries *)
  now : unit -> float;
  mutable bytes_live : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  entries : int;
  pinned : int;
  refs_total : int;
  bytes_live : int;
  hits : int;
  misses : int;
  evictions : int;
}

let create ?max_bytes ?(cache_capacity = 32) ?(now = Unix.gettimeofday) () =
  (match max_bytes with
  | Some b when b < 1 ->
    invalid_arg "Intern.create: max_bytes must be positive"
  | _ -> ());
  if cache_capacity < 0 then
    invalid_arg "Intern.create: cache_capacity must be non-negative";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 16;
    max_bytes;
    cache_capacity;
    now;
    bytes_live = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Drop LRU unpinned entries while the ledger is over the byte budget or
   the unpinned population is over the cache capacity. Called with the
   lock held after every mutation. *)
let shed t =
  let over () =
    let unpinned =
      Hashtbl.fold
        (fun _ e n -> if e.refs = 0 then n + 1 else n)
        t.table 0
    in
    unpinned > 0
    && ((match t.max_bytes with
        | Some budget -> t.bytes_live > budget
        | None -> false)
       || unpinned > t.cache_capacity)
  in
  while over () do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          if e.refs > 0 then acc
          else
            match acc with
            | None -> Some (key, e)
            | Some (bkey, best) ->
              if
                e.last_used < best.last_used
                || (e.last_used = best.last_used && compare key bkey < 0)
              then Some (key, e)
              else acc)
        t.table None
    in
    match victim with
    | None -> assert false (* over () demands an unpinned entry *)
    | Some (key, e) ->
      Hashtbl.remove t.table key;
      t.bytes_live <- t.bytes_live - e.e_bytes;
      t.evictions <- t.evictions + 1
  done

let acquire t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.refs <- e.refs + 1;
        e.last_used <- t.now ();
        t.hits <- t.hits + 1;
        Some (e.e_profiles, e.e_context)
      | None ->
        t.misses <- t.misses + 1;
        None)

let publish t key ~profiles ~context =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        (* a racer (or the undo cache) already holds this key: take a ref
           on the canonical pair and let the caller adopt it *)
        e.refs <- e.refs + 1;
        e.last_used <- t.now ();
        (e.e_profiles, e.e_context)
      | None ->
        let e =
          {
            e_profiles = profiles;
            e_context = context;
            e_bytes = Dod.approx_bytes context;
            refs = 1;
            last_used = t.now ();
          }
        in
        Hashtbl.replace t.table key e;
        t.bytes_live <- t.bytes_live + e.e_bytes;
        shed t;
        (profiles, context))

let release t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e when e.refs > 0 ->
        e.refs <- e.refs - 1;
        e.last_used <- t.now ();
        shed t
      | Some _ | None ->
        (* a ref was released twice, or for a key never published — the
           serve layer's one-reference-per-warm-cell invariant makes this
           unreachable *)
        assert false)

let peek t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.last_used <- t.now ();
        t.hits <- t.hits + 1;
        Some (e.e_profiles, e.e_context)
      | None ->
        t.misses <- t.misses + 1;
        None)

let insert_cached t key ~profiles ~context =
  locked t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        let e =
          {
            e_profiles = profiles;
            e_context = context;
            e_bytes = Dod.approx_bytes context;
            refs = 0;
            last_used = t.now ();
          }
        in
        Hashtbl.replace t.table key e;
        t.bytes_live <- t.bytes_live + e.e_bytes;
        shed t
      end)

let bytes_live t = locked t (fun () -> t.bytes_live)

let stats t =
  locked t (fun () ->
      let entries, pinned, refs_total =
        Hashtbl.fold
          (fun _ e (n, p, r) ->
            (n + 1, (if e.refs > 0 then p + 1 else p), r + e.refs))
          t.table (0, 0, 0)
      in
      {
        entries;
        pinned;
        refs_total;
        bytes_live = t.bytes_live;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })

let cache_capacity t = t.cache_capacity
