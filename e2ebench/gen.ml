(* Seeded request streams for the four workloads.

   Every request is derived from [--seed] and the demo queries of the
   built-in datasets (read from the server's [GET /datasets] and
   [GET /search]), so nothing is downloaded and the same seed always
   yields the same streams. *)

module Prng = Xsact_util.Prng

type workload = Hot_compare | Cold_compare | Zipf_compare | Session_edit

let workloads = [ Hot_compare; Cold_compare; Zipf_compare; Session_edit ]

let name = function
  | Hot_compare -> "hot_compare"
  | Cold_compare -> "cold_compare"
  | Zipf_compare -> "zipf_compare"
  | Session_edit -> "session_edit"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Daemon flags beyond [--port 0]: the defaults everywhere (cache 128,
   context cache 32, 4 workers), plus a state directory — default fsync
   [interval:0.1], snapshot every 256 appends — for the write path. *)
let daemon_args w ~state_dir =
  match w with
  | Session_edit -> [ "--state-dir"; state_dir ]
  | Hot_compare | Cold_compare | Zipf_compare -> []

(* ---- The catalog: demo queries and their result counts ------------------ *)

type query = { dataset : string; q : string; n : int }

type call = meth:string -> target:string -> body:string -> Daemon.reply

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("response lacks field " ^ name)

let url_encode s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> String.make 1 c
         | ' ' -> "+"
         | c -> Printf.sprintf "%%%02X" (Char.code c))
       (List.init (String.length s) (String.get s)))

let catalog (call : call) =
  let datasets =
    Daemon.json_of_reply (call ~meth:"GET" ~target:"/datasets" ~body:"")
    |> field "datasets" |> Json.to_list |> Option.get
  in
  List.concat_map
    (fun d ->
      let dataset = Option.get (Json.to_str (field "name" d)) in
      List.map
        (fun qj ->
          let q = Option.get (Json.to_str (field "q" qj)) in
          let target =
            Printf.sprintf "/search?dataset=%s&q=%s&limit=1000000"
              (url_encode dataset) (url_encode q)
          in
          let n =
            Daemon.json_of_reply (call ~meth:"GET" ~target ~body:"")
            |> field "count" |> Json.to_int |> Option.get
          in
          { dataset; q; n })
        (Option.get (Json.to_list (field "queries" d))))
    datasets

let eligible catalog ~min_results =
  Array.of_list (List.filter (fun q -> q.n >= min_results) catalog)

(* ---- Items ------------------------------------------------------------------- *)

type kind = Compare | Create | Get | Mutation of string  (* route origin *)

type item = {
  meth : string;
  target : string;
  body : string;
  kind : kind;
  ranks : int list;  (* session items: the model's selection afterwards *)
  bound : int;  (* session items: its size bound afterwards *)
  sample : bool;  (* compare items checked against the in-process pipeline *)
}

let kind_name = function
  | Compare -> "compare"
  | Create -> "create"
  | Get -> "get"
  | Mutation origin -> origin

let compare_body ?select ?top ?size_bound ?algorithm ?threshold q =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.to_string
    (Json.Obj
       ([ ("dataset", Json.String q.dataset); ("q", Json.String q.q) ]
       @ opt "select" (fun l -> Json.List (List.map (fun r -> Json.Int r) l)) select
       @ opt "top" (fun k -> Json.Int k) top
       @ opt "size_bound" (fun k -> Json.Int k) size_bound
       @ opt "algorithm" (fun a -> Json.String a) algorithm
       @ opt "threshold_pct" (fun t -> Json.Float t) threshold))

let compare_item ?(sample = false) body =
  { meth = "POST"; target = "/compare"; body; kind = Compare; ranks = [];
    bound = 0; sample }

let decode_compare body =
  match Result.bind (Json.of_string body) Api.decode_compare with
  | Ok r -> r
  | Error e -> failwith ("bench generated an undecodable body: " ^ e)

(* ---- Randomness ------------------------------------------------------------- *)

(* One independent generator per purpose, so adding draws to one stream
   never shifts another. *)
let prng ~seed tag = Prng.of_int ((seed lsl 5) lor tag)

let shuffle g a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [k] distinct ranks from [1..pool], in draw order. *)
let distinct_ranks g k pool =
  let a = Array.init pool (fun i -> i + 1) in
  for i = 0 to k - 1 do
    let j = i + Prng.int g (pool - i) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list (Array.sub a 0 k)

let pick g l = List.nth l (Prng.int g (List.length l))

(* ---- Compare workloads ------------------------------------------------------- *)

(* The demo queries with at least 4 results, each at top 4 and bound 8, in
   a seeded order, cycled. They fit the 128-entry LRU, so after the first
   round every request is a cache hit. *)
let hot catalog ~seed =
  let qs = eligible catalog ~min_results:4 in
  let bodies =
    shuffle (prng ~seed 1) (Array.map (fun q -> compare_body ~top:4 ~size_bound:8 q) qs)
  in
  let i = ref (-1) in
  fun () ->
    incr i;
    compare_item bodies.(!i mod Array.length bodies)

(* Queries with at least 20 results; 4-16 distinct ranks among the first
   min(n, 40), bound 4-12, default algorithm. A draw whose context key was
   already used is rejected, so neither the LRU nor the intern table can
   serve any request. *)
let cold catalog ~seed =
  let qs = eligible catalog ~min_results:20 in
  let g = prng ~seed 2 and sampler = prng ~seed 3 in
  let seen_ctx = Hashtbl.create 4096 and seen_full = Hashtbl.create 4096 in
  let rec next () =
    let q = qs.(Prng.int g (Array.length qs)) in
    let pool = min q.n 40 in
    let ranks = distinct_ranks g (Prng.int_in g 4 (min 16 pool)) pool in
    let body = compare_body ~select:ranks ~size_bound:(Prng.int_in g 4 12) q in
    let r = decode_compare body in
    let ctx = Api.canonical_key ~scope:Api.Context r in
    if Hashtbl.mem seen_ctx ctx then next ()
    else begin
      let full = Api.canonical_key ~scope:Api.Full r in
      if Hashtbl.mem seen_full full then failwith "cold_compare: a full key repeated";
      Hashtbl.add seen_ctx ctx ();
      Hashtbl.add seen_full full ();
      compare_item ~sample:(Prng.int sampler 50 = 0) body
    end
  in
  next

let zipf_selections = 48
let zipf_bounds = [ 4; 6; 8; 12 ]
let zipf_algorithms = [ "multi-swap"; "single-swap" ]

(* 48 distinct selections (4-8 ranks among the first min(n, 16) of the
   queries with at least 4 results) x 4 bounds x 2 algorithms = 384
   bodies, drawn Zipf(s = 1) over a seeded permutation: more full keys
   than the LRU holds and more selections than the intern table keeps.
   The skew and the body set are assumptions, sized against the caches;
   no usage record exists to derive them from. *)
let zipf catalog ~seed =
  let qs = eligible catalog ~min_results:4 in
  let g = prng ~seed 4 in
  let seen = Hashtbl.create 64 in
  let rec selection i =
    let q = qs.(i mod Array.length qs) in
    let pool = min q.n 16 in
    let ranks = distinct_ranks g (min pool (4 + (i mod 5))) pool in
    if Hashtbl.mem seen (q, ranks) then selection i
    else begin
      Hashtbl.add seen (q, ranks) ();
      (q, ranks)
    end
  in
  let bodies =
    List.init zipf_selections selection
    |> List.concat_map (fun (q, ranks) ->
           List.concat_map
             (fun size_bound ->
               List.map
                 (fun algorithm -> compare_body ~select:ranks ~size_bound ~algorithm q)
                 zipf_algorithms)
             zipf_bounds)
    |> Array.of_list |> shuffle g
  in
  let n = Array.length bodies in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let draw = prng ~seed 5 and sampler = prng ~seed 6 in
  fun () ->
    let u = Prng.float draw cdf.(n - 1) in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    compare_item ~sample:(Prng.int sampler 50 = 0) bodies.(min (n - 1) (search 0 (n - 1)))

(* ---- Sessions ---------------------------------------------------------------- *)

type session_spec = { sq : query; init_ranks : int list; init_bound : int }

(* The queries with at least 10 results except the one with the most: 16
   of them, so 64 sessions make 4 per query. *)
let session_queries catalog =
  let qs = Array.to_list (eligible catalog ~min_results:10) in
  let largest = List.fold_left (fun m q -> if q.n > m.n then q else m) (List.hd qs) qs in
  Array.of_list (List.filter (fun q -> q != largest) qs)

(* [count] sessions, 4 per query, each on 4 distinct ranks among the first
   min(n, 12), bound 8. *)
let session_specs catalog ~seed ~count =
  let qs = session_queries catalog in
  let g = prng ~seed 7 in
  Array.init count (fun slot ->
      let sq = qs.(slot / 4 mod Array.length qs) in
      { sq; init_ranks = distinct_ranks g 4 (min sq.n 12); init_bound = 8 })

let create_item spec =
  {
    meth = "POST";
    target = "/session";
    body = compare_body ~select:spec.init_ranks ~size_bound:spec.init_bound spec.sq;
    kind = Create;
    ranks = spec.init_ranks;
    bound = spec.init_bound;
    sample = false;
  }

(* A bare read of one session, outside any stream. *)
let get_item id =
  { meth = "GET"; target = "/session/" ^ id; body = ""; kind = Get; ranks = []; bound = 0;
    sample = false }

type model = {
  id : string;
  mq : query;
  mutable ranks : int list;
  mutable bound : int;
  mutable thr : float;
}

let thresholds = [| 5.; 10.; 15.; 20.; 25. |]

let rank_pool m = min m.mq.n 12

let op_add g m =
  let free =
    List.filter (fun r -> not (List.mem r m.ranks)) (List.init (rank_pool m) (fun i -> i + 1))
  in
  let r = pick g free in
  m.ranks <- m.ranks @ [ r ];
  ("add", [ ("rank", Json.Int r) ])

let op_remove g m =
  let r = pick g m.ranks in
  m.ranks <- List.filter (fun x -> x <> r) m.ranks;
  ("remove", [ ("rank", Json.Int r) ])

(* Selections stay within 3..8 ranks, so every op is valid. *)
let op_add_or_remove g m =
  let can_add = List.length m.ranks < min 8 (rank_pool m) in
  let can_remove = List.length m.ranks > 3 in
  if can_add && ((not can_remove) || Prng.bool g) then op_add g m else op_remove g m

let op_size g m =
  let b = Prng.int_in g 4 12 in
  m.bound <- b;
  ("size", [ ("size_bound", Json.Int b) ])

let op_params g m =
  let t = thresholds.(Prng.int g (Array.length thresholds)) in
  m.thr <- t;
  ("params", [ ("threshold_pct", Json.Float t) ])

(* One connection's stream over the sessions it owns (slot mod nconn =
   conn), round-robin: 25 % resize, 20 % add or remove, 10 % threshold
   patch, 5 % a 4-op /apply batch, 30 % GET, 10 % /compare on the
   session's current selection. The operations are the paper's
   interaction loop (tick results, set the size bound, view the table);
   the frequencies are assumptions that reach every mutation route, not
   measured usage. The model is this stream's own copy. *)
let session_stream ~seed ~conn ~nconn (sessions : (string * session_spec) array) =
  let owned =
    Array.of_list
      (List.filteri (fun slot _ -> slot mod nconn = conn) (Array.to_list sessions))
    |> Array.map (fun (id, s) ->
           { id; mq = s.sq; ranks = s.init_ranks; bound = s.init_bound; thr = 10. })
  in
  let g = prng ~seed (8 + conn) and sampler = prng ~seed (16 + conn) in
  let k = ref (-1) in
  fun () ->
    incr k;
    let m = owned.(!k mod Array.length owned) in
    let path = "/session/" ^ m.id in
    let item ?(meth = "POST") ?(target = path) ?(sample = false) kind body =
      { meth; target; body; kind; ranks = m.ranks; bound = m.bound; sample }
    in
    let single meth (origin, fields) =
      item ~meth ~target:(path ^ "/" ^ origin) (Mutation origin)
        (Json.to_string (Json.Obj fields))
    in
    let r = Prng.float g 1. in
    if r < 0.25 then single "POST" (op_size g m)
    else if r < 0.45 then single "POST" (op_add_or_remove g m)
    else if r < 0.55 then single "PATCH" (op_params g m)
    else if r < 0.60 then begin
      let ops =
        List.init 4 (fun _ ->
            let op, fields =
              match Prng.int g 4 with
              | 0 | 1 -> op_add_or_remove g m
              | 2 -> op_size g m
              | _ -> op_params g m
            in
            Json.Obj (("op", Json.String op) :: fields))
      in
      item ~target:(path ^ "/apply") (Mutation "apply")
        (Json.to_string (Json.Obj [ ("ops", Json.List ops) ]))
    end
    else if r < 0.90 then item ~meth:"GET" Get ""
    else
      item ~target:"/compare" ~sample:(Prng.int sampler 50 = 0) Compare
        (compare_body ~select:m.ranks ~size_bound:m.bound ~threshold:m.thr m.mq)

(* ---- Streams per workload ---------------------------------------------------- *)

let sessions_per_run = 64

(* [next conn] yields connection [conn]'s next request. Compare workloads
   share one stream (callers serialize [next]); on session_edit each of the
   [nconn] connections owns its sessions and its stream. *)
let make w ~seed ~catalog ~sessions ~nconn =
  match w with
  | Hot_compare ->
    let s = hot catalog ~seed in
    fun _ -> s ()
  | Cold_compare ->
    let s = cold catalog ~seed in
    fun _ -> s ()
  | Zipf_compare ->
    let s = zipf catalog ~seed in
    fun _ -> s ()
  | Session_edit ->
    let streams = Array.init nconn (fun conn -> session_stream ~seed ~conn ~nconn sessions) in
    fun conn -> streams.(conn) ()

(* The first [n] requests, taking connections in turn. *)
let prefix w ~seed ~catalog ~sessions ~nconn n =
  let next = make w ~seed ~catalog ~sessions ~nconn in
  List.init n (fun i -> next (i mod nconn))

(* Input statistics of a stream prefix, one line. *)
let describe items =
  let full = Hashtbl.create 256 and ctx = Hashtbl.create 256 in
  let sel = ref 0 and compares = ref 0 in
  let mix = Hashtbl.create 8 in
  List.iter
    (fun it ->
      let k = kind_name it.kind in
      Hashtbl.replace mix k (1 + Option.value ~default:0 (Hashtbl.find_opt mix k));
      if it.kind = Compare then begin
        let r = decode_compare it.body in
        Hashtbl.replace full (Api.canonical_key ~scope:Api.Full r) ();
        Hashtbl.replace ctx (Api.canonical_key ~scope:Api.Context r) ();
        incr compares;
        sel := !sel + match r.Api.select with Some l -> List.length l | None -> r.Api.top
      end)
    items;
  let n = List.length items in
  Printf.sprintf
    "%d requests: %d distinct full keys, %d distinct context keys, mean selection %.2f; mix %s"
    n (Hashtbl.length full) (Hashtbl.length ctx)
    (if !compares = 0 then 0. else float_of_int !sel /. float_of_int !compares)
    (Hashtbl.fold (fun k c acc -> (k, c) :: acc) mix []
    |> List.sort compare
    |> List.map (fun (k, c) -> Printf.sprintf "%s %.1f%%" k (100. *. float_of_int c /. float_of_int n))
    |> String.concat ", ")

let wire it = Printf.sprintf "%s %s\n%s\n" it.meth it.target it.body
