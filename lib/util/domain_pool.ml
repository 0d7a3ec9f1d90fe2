(* A blocking (non-spinning) fixed pool of worker domains.

   One job is in flight at a time; it is published under [lock] with a
   generation bump so late-waking workers never re-run a finished job.
   Chunks of the index range are handed out through an atomic counter, so
   whichever participant is free takes the next chunk (self-balancing
   against uneven chunk costs). The caller is always a participant, which
   is what lets a size-1 pool run with zero synchronization. *)

type job = {
  f : int -> int -> unit;  (* f lo hi over [lo, hi) *)
  n : int;
  nchunks : int;
  next : int Atomic.t;  (* next chunk index to hand out *)
  deadline : Deadline.t option;  (* tripped -> remaining chunks are skipped *)
  mutable remaining : int;  (* chunks not yet finished; under [lock] *)
  mutable failed : exn option;  (* first chunk exception; under [lock] *)
}

type t = {
  domains : int;
  submit : Mutex.t;  (* serializes whole jobs: one in flight per pool *)
  lock : Mutex.t;
  work_ready : Condition.t;  (* new job published, or shutdown *)
  work_done : Condition.t;  (* a job's last chunk finished *)
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let domains t = t.domains

let chunk_bounds job c =
  (* Even split of [0, n) into nchunks contiguous ranges. *)
  (c * job.n / job.nchunks, (c + 1) * job.n / job.nchunks)

(* Drain chunks of [job] until the counter runs out. Called without the
   lock held. Once the job's deadline trips, the remaining chunks are
   claimed and retired as no-ops under a recorded [Deadline.Expired], so
   the job still drains fully and the pool stays reusable — the caller
   gets the exception, never a half-written result. *)
let run_chunks t job =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add job.next 1 in
    if c >= job.nchunks then continue := false
    else begin
      let lo, hi = chunk_bounds job c in
      let outcome =
        if Deadline.over job.deadline then Some Deadline.Expired
        else match job.f lo hi with () -> None | exception e -> Some e
      in
      Mutex.lock t.lock;
      (match outcome with
      | Some e when job.failed = None -> job.failed <- Some e
      | _ -> ());
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.lock
    end
  done

let worker t () =
  let seen = ref 0 in
  Mutex.lock t.lock;
  while not t.stop do
    if t.generation = !seen then Condition.wait t.work_ready t.lock
    else begin
      seen := t.generation;
      match t.job with
      | None -> ()  (* job already fully drained and retired *)
      | Some job ->
        Mutex.unlock t.lock;
        run_chunks t job;
        Mutex.lock t.lock
    end
  done;
  Mutex.unlock t.lock

let create ~domains =
  let domains = max 1 domains in
  let t =
    {
      domains;
      submit = Mutex.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Chunks per participant: enough slack for self-balancing, not so many
   that the per-chunk lock round-trip shows up. *)
let chunks_per_domain = 4

let parallel_for ?deadline t ~n ~chunk =
  if n > 0 then
    if t.domains = 1 then begin
      Deadline.check deadline;
      chunk 0 n
    end
    else begin
      Failpoint.hit "pool.submit";
      Deadline.check deadline;
      (* Callers may race in from several systhreads (e.g. xsact-serve
         worker threads); [submit] upholds the one-job-in-flight
         invariant by serializing whole jobs per pool. *)
      Mutex.lock t.submit;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.submit)
        (fun () ->
          let nchunks = min n (t.domains * chunks_per_domain) in
          let job =
            { f = chunk; n; nchunks; next = Atomic.make 0; deadline;
              remaining = nchunks; failed = None }
          in
          Mutex.lock t.lock;
          t.job <- Some job;
          t.generation <- t.generation + 1;
          Condition.broadcast t.work_ready;
          Mutex.unlock t.lock;
          run_chunks t job;
          Mutex.lock t.lock;
          while job.remaining > 0 do
            Condition.wait t.work_done t.lock
          done;
          t.job <- None;
          Mutex.unlock t.lock;
          match job.failed with Some e -> raise e | None -> ())
    end

let map_reduce ?deadline t ~n ~map ~reduce ~init =
  if n <= 0 then init
  else if t.domains = 1 then begin
    Deadline.check deadline;
    reduce init (map 0 n)
  end
  else begin
    (* Fix the map ranges up front so the fold order (ascending range
       index) is independent of which domain computed what. *)
    let nranges = min n (t.domains * chunks_per_domain) in
    let results = Array.make nranges None in
    parallel_for ?deadline t ~n:nranges ~chunk:(fun lo hi ->
        for r = lo to hi - 1 do
          let rlo = r * n / nranges and rhi = (r + 1) * n / nranges in
          results.(r) <- Some (map rlo rhi)
        done);
    Array.fold_left
      (fun acc slot ->
        match slot with Some v -> reduce acc v | None -> assert false)
      init results
  end

(* ---- Process-global pools ---------------------------------------------- *)

let max_default_domains = 8

let default_domains () =
  min (Domain.recommended_domain_count ()) max_default_domains

let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_lock = Mutex.create ()

let get ~domains =
  let domains = max 1 domains in
  Mutex.lock pools_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock pools_lock)
    (fun () ->
      match Hashtbl.find_opt pools domains with
      | Some pool -> pool
      | None ->
        let pool = create ~domains in
        Hashtbl.add pools domains pool;
        pool)
