(** Test-only fault injection (env- or programmatically armed, free when
    off).

    Production code marks failure-interesting spots with [hit "name"];
    when nothing is armed (every production run) that is one atomic load.
    Tests arm points to delay ([Sleep]) or raise ([Fail] / [Fail_n])
    and assert the system degrades as designed.

    Current catalog (see DESIGN.md §9 for the semantics each exercises):
    - ["compare.round"] — start of every optimization round in
      single-swap, multi-swap and greedy generation (slow computations,
      deadline expiry mid-compare);
    - ["socket.write"] — before each HTTP response write in the server
      (client gone mid-response);
    - ["persist.append"] — before a journal record is written;
    - ["persist.append.tear"] — between a journal record's header and
      payload writes (a [kill -9] of a sleeper here leaves a torn tail);
    - ["persist.fsync"] — before each journal fsync;
    - ["persist.snapshot.rename"] / ["persist.snapshot.truncate"] —
      before the snapshot's atomic rename / before the journal truncation
      that follows it (crash windows of compaction);
    - ["repl.apply.corrupt"] — a follower swallows a streamed journal
      record while advancing its cursor (manufactured replay divergence;
      the healing resync path must detect and repair it). *)

exception Injected of string
(** Raised by a [Fail]-armed point; carries the point name. *)

type action =
  | Sleep of float  (** delay this many seconds, then continue *)
  | Fail  (** raise {!Injected} on every hit *)
  | Fail_n of int  (** raise {!Injected} on the first [n] hits, then pass *)

val hit : string -> unit
(** Trigger the named point's armed action, if any. One atomic load when
    nothing is armed at all. *)

val enable : string -> action -> unit
val disable : string -> unit

val reset : unit -> unit
(** Disarm everything and zero the hit counts. *)

val hits : string -> int
(** Times the named point fired while armed (any action). *)

val configure : string -> (unit, string) result
(** Parse and arm a spec like
    ["compare.round=sleep:0.05,socket.write=fail:2"] — comma- or
    semicolon-separated [point=action] entries where action is [fail],
    [fail:N] or [sleep:SECONDS]. This is the grammar of the
    [XSACT_FAILPOINTS] environment variable, which is applied at module
    load (a malformed value raises [Invalid_argument], so a fault
    injection run can never silently arm nothing). *)
