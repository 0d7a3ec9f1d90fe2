(** Cancellation tokens with an optional monotonic time budget.

    The anytime algorithms (single-swap, multi-swap, greedy) improve a
    valid solution round by round, so they can stop at any poll point and
    still hand back their best-so-far DFSs. A [Deadline.t] is the token
    they poll: it trips either when its time budget runs out (measured on
    the monotonic clock, immune to wall-clock steps) or when some other
    thread calls {!cancel}. Tokens are cheap to poll — one atomic read,
    plus one monotonic clock read when a budget is set — so per-round or
    per-partition checks cost nothing measurable.

    Code that cannot produce a partial answer (e.g. pair-table
    construction) raises {!Expired} instead, via {!check}; callers map it
    to a typed timeout error. *)

type t

exception Expired
(** Raised by {!check} when no partial answer is possible. *)

val create : ?budget_s:float -> unit -> t
(** A fresh token. With [budget_s], the token trips [budget_s] seconds of
    monotonic time after creation; without it, only {!cancel} trips it.
    @raise Invalid_argument if [budget_s] is negative, nan or infinite. *)

val of_ms : float -> t
(** [of_ms ms = create ~budget_s:(ms /. 1000.) ()]. *)

val cancel : t -> unit
(** Trip the token now, from any thread or domain. Idempotent. *)

val cancelled : t -> bool
(** Has {!cancel} been called? (Ignores the time budget.) *)

val expired : t -> bool
(** Has the time budget run out? (Ignores {!cancel}.) *)

val over : t option -> bool
(** Should the computation stop? [over (Some t)] is [cancelled t || expired
    t]; [over None] is [false] — the form the algorithm loops consume their
    optional deadline argument with. *)

val check : t option -> unit
(** @raise Expired if [over] — for code with no best-so-far to return. *)

val remaining_s : t -> float
(** Seconds of budget left; [0.] once tripped, [infinity] with no budget. *)
