let bucket_bounds_ms = [| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. |]

type t = {
  mutex : Mutex.t;
  by_route : (string, int) Hashtbl.t;
  by_status : (int, int) Hashtbl.t;  (* keyed by status class: 2, 4, 5 *)
  buckets : int array;  (* one slot per bound + overflow *)
  mutable total : int;
  mutable latency_sum_s : float;
  (* free-form named counters: overload/fault events (shed, timeout,
     degraded, accept retries, session evictions, ...) *)
  events : (string, int) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    by_route = Hashtbl.create 16;
    by_status = Hashtbl.create 8;
    buckets = Array.make (Array.length bucket_bounds_ms + 1) 0;
    total = 0;
    latency_sum_s = 0.;
    events = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let bump table key =
  Hashtbl.replace table key
    (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let bucket_index elapsed_ms =
  let n = Array.length bucket_bounds_ms in
  let rec go i =
    if i >= n then n
    else if elapsed_ms <= bucket_bounds_ms.(i) then i
    else go (i + 1)
  in
  go 0

let record t ~route ~status ~elapsed_s =
  locked t (fun () ->
      t.total <- t.total + 1;
      t.latency_sum_s <- t.latency_sum_s +. elapsed_s;
      bump t.by_route route;
      bump t.by_status (status / 100);
      let i = bucket_index (1000. *. elapsed_s) in
      t.buckets.(i) <- t.buckets.(i) + 1)

let incr_counter ?(by = 1) t name =
  locked t (fun () ->
      Hashtbl.replace t.events name
        (by + Option.value ~default:0 (Hashtbl.find_opt t.events name)))

let counter t name =
  locked t (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt t.events name))

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t ~extra =
  locked t (fun () ->
      let routes =
        List.map (fun (r, n) -> (r, Json.Int n)) (sorted_bindings t.by_route)
      in
      let statuses =
        List.map
          (fun (c, n) -> (Printf.sprintf "%dxx" c, Json.Int n))
          (sorted_bindings t.by_status)
      in
      let buckets =
        List.concat
          [
            Array.to_list
              (Array.mapi
                 (fun i bound ->
                   (Printf.sprintf "le_%gms" bound, Json.Int t.buckets.(i)))
                 bucket_bounds_ms);
            [ ("inf", Json.Int t.buckets.(Array.length bucket_bounds_ms)) ];
          ]
      in
      let mean_ms =
        if t.total = 0 then 0.
        else 1000. *. t.latency_sum_s /. float_of_int t.total
      in
      let events =
        List.map (fun (k, v) -> (k, Json.Int v)) (sorted_bindings t.events)
      in
      Json.Obj
        ([
           ("requests_total", Json.Int t.total);
           ("requests_by_route", Json.Obj routes);
           ("responses_by_status", Json.Obj statuses);
           ("latency_ms_buckets", Json.Obj buckets);
           ("latency_ms_mean", Json.Float mean_ms);
           ("events", Json.Obj events);
         ]
        @ extra))
