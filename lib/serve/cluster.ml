type addr = string * int

let addr_string (host, port) = Printf.sprintf "%s:%d" host port

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when host <> "" && port > 0 && port < 65536 ->
      Some (host, port)
    | _ -> None)

type role = Primary | Follower | Fenced

let role_name = function Primary -> "primary" | Follower | Fenced -> "follower"

type t = {
  role : role;
  epoch : int;
  winner : string option;
  primary : addr option;
}

let init ?primary () =
  {
    role = (if primary = None then Primary else Follower);
    epoch = 0;
    winner = None;
    primary;
  }

type event =
  | Recovered of { epoch : int; winner : string option }
  | Promote of int option
  | Observe of { epoch : int; winner : string option }
  | Step_down
  | Follow of addr

type effect =
  | Persist_fence of { epoch : int; winner : string option }
  | Start_fencer of int
  | Ensure_client
  | Stop_client
  | Count of string

let demoted = [ Count "demotions"; Ensure_client ]

let step t = function
  | Recovered { epoch; winner } ->
    (* A winner on record means this directory was a primary when a higher
       epoch fenced it: it comes back fenced, whatever flags it was
       restarted with — unless told to follow someone outright. *)
    let t = { t with epoch; winner } in
    if t.role = Primary && winner <> None then
      ({ t with role = Fenced; primary = Option.bind winner parse_hostport }, [])
    else (t, [])
  | Promote (Some e) when e <> t.epoch -> (t, [])
  | Promote _ when t.role = Primary -> (t, [])
  | Promote _ ->
    let epoch = t.epoch + 1 in
    ( { role = Primary; epoch; winner = None; primary = None },
      [
        Persist_fence { epoch; winner = None };
        Stop_client;
        Count "promotions";
        Start_fencer epoch;
      ] )
  | Observe { epoch; _ } when epoch <= t.epoch -> (t, [])
  | Observe { epoch; winner } ->
    let primary =
      match Option.bind winner parse_hostport with
      | Some hp -> Some hp
      | None -> t.primary
    in
    if t.role = Primary then
      ( { role = Fenced; epoch; winner; primary },
        Persist_fence { epoch; winner } :: demoted )
    else
      (* a follower just adopts the epoch; it records no winner, so its
         directory restarted standalone still boots primary *)
      ( { t with epoch; winner = None; primary },
        [ Persist_fence { epoch; winner = None } ] )
  | Step_down when t.role = Primary -> ({ t with role = Follower }, demoted)
  | Step_down -> (t, [])
  | Follow hp when t.role = Primary ->
    ({ t with role = Follower; primary = Some hp }, demoted)
  | Follow hp -> ({ t with primary = Some hp }, [])

type access = Read | Write | Subscribe of int
type verdict = Allow | Refuse_follower | Refuse_fenced | Superseded

let gate t access =
  match (access, t.role) with
  | Read, _ -> Allow
  | Subscribe e, Primary when e > t.epoch -> Superseded
  | (Write | Subscribe _), Primary -> Allow
  | (Write | Subscribe _), Follower -> Refuse_follower
  | (Write | Subscribe _), Fenced -> Refuse_fenced

type peer = {
  p_addr : addr;
  p_role : role;
  p_epoch : int;
  p_primary : addr option;
}

let rank epoch addr = (-epoch, addr_string addr)

let elect ~self ~epoch peers =
  let by_rank a b = compare (rank a.p_epoch a.p_addr) (rank b.p_epoch b.p_addr) in
  let live =
    List.filter (fun p -> p.p_role = Primary && p.p_epoch >= epoch) peers
  in
  match List.sort by_rank live with
  | best :: _ -> Some (Follow best.p_addr)
  | [] ->
    let outranks me p =
      p.p_role <> Primary && rank p.p_epoch p.p_addr < rank epoch me
    in
    if Option.fold ~none:false ~some:(fun me -> List.exists (outranks me) peers) self
    then None
    else Some (Promote None)
