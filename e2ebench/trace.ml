(* In-memory span recorder for the traced replay.

   A span is [{id, parent, req, name, start_ns, end_ns}]. Spans live in
   preallocated parallel arrays (no allocation per span beyond the name
   lookup), nest through an implicit "current span" — the replay is
   single-threaded — and are written out as JSONL only when the run ends.
   A span's self time is its duration minus that of its direct children;
   children never overlap, so their durations simply add up. *)

type t = {
  parent : int array;
  req : int array;
  name : int array;
  start_ns : int array;
  end_ns : int array;
  mutable len : int;
  mutable current : int;  (* innermost open span, -1 at top level *)
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ~capacity =
  {
    parent = Array.make capacity (-1);
    req = Array.make capacity 0;
    name = Array.make capacity 0;
    start_ns = Array.make capacity 0;
    end_ns = Array.make capacity 0;
    len = 0;
    current = -1;
    names = Hashtbl.create 32;
    name_of = [||];
  }

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

let start t ~req name =
  if t.len = Array.length t.parent then failwith "trace: span capacity exhausted";
  let id = t.len in
  t.len <- id + 1;
  t.parent.(id) <- t.current;
  t.req.(id) <- req;
  t.name.(id) <- name_id t name;
  t.current <- id;
  t.start_ns.(id) <- now_ns ();
  id

let stop t id =
  t.end_ns.(id) <- now_ns ();
  t.current <- t.parent.(id)

let span t ~req name f =
  let id = start t ~req name in
  match f () with
  | v ->
    stop t id;
    v
  | exception e ->
    stop t id;
    raise e

let duration t id = t.end_ns.(id) - t.start_ns.(id)

let self_times t =
  let self = Array.init t.len (duration t) in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p >= 0 then self.(p) <- self.(p) - duration t id
  done;
  self

(* Every span, in start order, as (id, name, req, self_ns). *)
let fold t ~init ~f =
  let self = self_times t in
  let acc = ref init in
  for id = 0 to t.len - 1 do
    acc := f !acc ~id ~name:t.name_of.(t.name.(id)) ~req:t.req.(id) ~self:self.(id)
  done;
  !acc

(* Self times (ns) of the spans named [name] whose request satisfies
   [keep]. *)
let selfs ?(keep = fun _ -> true) t name =
  fold t ~init:[] ~f:(fun acc ~id:_ ~name:n ~req ~self ->
      if n = name && keep req then float_of_int self :: acc else acc)
  |> Array.of_list

let write_jsonl t path =
  Out_channel.with_open_text path (fun oc ->
      for id = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%s,\"req\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
          id
          (if t.parent.(id) < 0 then "null" else string_of_int t.parent.(id))
          t.req.(id) t.name_of.(t.name.(id)) t.start_ns.(id) t.end_ns.(id)
      done)

(* Per span name: count, p50 self time and share of all recorded time
   (the self times of every span add up to the roots' durations). *)
let summary t =
  let by_name = Hashtbl.create 32 in
  let total =
    fold t ~init:0 ~f:(fun total ~id:_ ~name ~req:_ ~self ->
        let v =
          match Hashtbl.find_opt by_name name with
          | Some v -> v
          | None ->
            let v = Stats.vec () in
            Hashtbl.add by_name name v;
            v
        in
        Stats.push v (float_of_int self);
        total + self)
  in
  Hashtbl.fold (fun name v acc -> (name, Stats.to_array v) :: acc) by_name []
  |> List.map (fun (name, a) ->
         (name, Array.length a, Stats.median a, Stats.sum a /. float_of_int (max 1 total)))
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
