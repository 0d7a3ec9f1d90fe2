(* Sample storage and order statistics. *)

(* A growable unboxed float vector: one per client thread, appended to on
   every reply, so recording a latency never allocates a list cell. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 4096 0.; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0. in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

let concat vs = Array.concat (List.map to_array vs)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an ascending array; nan when empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0. a
