(** A node's place in the cluster, as a pure value (DESIGN.md §14).

    Every role and epoch decision a server makes — promotion, fencing,
    step-down, re-pointing, the write gate and the takeover election — is
    a function of this module: no I/O, no threads, no clocks. [Server]
    holds one {!t} behind one lock, feeds it {!event}s through {!step},
    and executes the {!effect}s that come back; persisting the fence
    comes first, before the new state becomes visible.

    {v
    state \ event   Promote        Observe e>epoch    Step_down   Follow hp
    Primary         no-op          Fenced, winner w   Follower    Follower of hp
    Follower        Primary e+1    adopt e            no-op       re-point
    Fenced          Primary e+1    adopt e            no-op       re-point
    v}

    [Observe] with [e <= epoch] and a [Promote] whose CAS epoch does not
    match are no-ops in every state. *)

type addr = string * int

val addr_string : addr -> string
(** ["HOST:PORT"] — also the election's tie-break key. *)

val parse_hostport : string -> addr option

type role =
  | Primary
  | Follower
  | Fenced  (** an ex-primary superseded by a higher epoch: read-only *)

val role_name : role -> string
(** ["primary"] or ["follower"] (a fenced node is a follower on the wire). *)

type t = {
  role : role;
  epoch : int;  (** the fencing epoch: monotone, minted by promotion *)
  winner : string option;
      (** the [HOST:PORT] that fenced this node while it was primary, as
          [<state-dir>/epoch] records it; [None] on every primary *)
  primary : addr option;  (** where mutations go now, when not primary *)
}

val init : ?primary:addr -> unit -> t
(** A fresh node at epoch 0: a follower of [primary], else a primary. *)

type event =
  | Recovered of { epoch : int; winner : string option }
      (** the durable fence read at boot; a recorded winner fences *)
  | Promote of int option
      (** become primary at epoch + 1; [Some e] only if the epoch is [e] *)
  | Observe of { epoch : int; winner : string option }
      (** a higher epoch seen: demote probe, subscriber, fencer, stream *)
  | Step_down  (** operator handover: stop writing, mint nothing *)
  | Follow of addr  (** a live primary to follow (boot probe, re-point) *)

type effect =
  | Persist_fence of { epoch : int; winner : string option }
      (** write the epoch file — always first *)
  | Start_fencer of int  (** chase every peer with the new epoch *)
  | Ensure_client  (** a follower needs a replication client *)
  | Stop_client  (** a new primary drops its replication client *)
  | Count of string  (** bump a [/metrics] counter *)

val step : t -> event -> t * effect list

(** {1 The write gate} *)

type access =
  | Read  (** GETs, [POST /compare], the topology verbs *)
  | Write  (** anything that mutates session state *)
  | Subscribe of int  (** [GET /v1/replicate] from a node at this epoch *)

type verdict =
  | Allow
  | Refuse_follower  (** 503: send it to the primary *)
  | Refuse_fenced  (** 409: superseded, name the winner *)
  | Superseded  (** a subscriber is ahead: {!Observe} its epoch *)

val gate : t -> access -> verdict

(** {1 The election} *)

type peer = {
  p_addr : addr;
  p_role : role;
  p_epoch : int;
  p_primary : addr option;  (** a follower's current target *)
}

val elect : self:addr option -> epoch:int -> peer list -> event option
(** Rank probed peers — highest epoch first, then lowest address —
    ignoring primaries below [epoch]. [Some (Follow p)]: the best live
    primary. [Some (Promote None)]: no live primary and no follower
    outranks [self] at [epoch]. [None]: a follower outranks us — defer
    and probe again. *)
