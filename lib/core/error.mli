(** Typed errors of the comparison API.

    {!Pipeline} and {!Session} used to report failures as bare strings,
    which a serving layer can only map to HTTP status codes by matching
    message text. Every fallible operation now returns one of these
    variants; [to_string] renders the human-readable message the CLI and
    examples print, and `xsact-serve` maps the variants to status codes
    directly (see [Xsact_serve.Api.status_of_error]). *)

type t =
  | No_results of string
      (** the keyword query matched nothing; carries the keywords *)
  | Too_few_selected of int
      (** a comparison needs at least two results; carries how many the
          operation would leave *)
  | Rank_out_of_range of { rank : int; available : int }
      (** a 1-based selection rank outside [1, available] *)
  | Index_out_of_range of { index : int; length : int }
      (** a 0-based session index outside [0, length) *)
  | Bound_too_small of int
      (** the size bound L must be at least 1; carries the offending value *)
  | Unsupported_algorithm of string
      (** the operation rejects this algorithm (e.g. sessions and the
          exhaustive oracle); carries {!Algorithm.to_string} of it *)
  | Timeout
      (** the request's {!Xsact_util.Deadline} tripped before even a
          degraded (best-so-far) answer existed — e.g. during context
          construction. The serving layer maps this to HTTP 504. *)

val to_string : t -> string
(** The human-readable message ("no results for ...", "size bound must be
    at least 1", ...) — what the pre-typed API returned as [Error msg]. *)
