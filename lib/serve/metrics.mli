(** Request metrics behind [GET /metrics]: per-route request counts,
    status classes, and a fixed-bucket latency histogram. Thread-safe —
    every worker records into the one shared instance. *)

type t

val create : unit -> t

val record : t -> route:string -> status:int -> elapsed_s:float -> unit
(** Record one served request. [route] is the route pattern (e.g.
    ["POST /compare"]), not the concrete target, so cardinality stays
    bounded. *)

val bucket_bounds_ms : float array
(** Upper bounds (milliseconds) of the latency buckets; the histogram has
    one extra overflow bucket above the last bound. *)

val snapshot : t -> extra:(string * Json.t) list -> Json.t
(** Consistent snapshot as the [/metrics] response body. [extra] appends
    server-owned gauges (cache hit rate, pool size, ...). *)

val incr_counter : ?by:int -> t -> string -> unit
(** Bump the named event counter (created at 0 on first use). The overload
    path uses ["requests_shed"], ["requests_timed_out"],
    ["responses_degraded"] and ["accept_retries"]. All appear under
    ["events"] in {!snapshot}. *)

val counter : t -> string -> int
(** Current value of a named event counter (0 if never bumped). *)
