module Metrics = Lsdb_obs.Metrics

type t = {
  size : int;
  mutex : Mutex.t;  (* guards [jobs], [stopped] and [lane_groups] *)
  nonempty : Condition.t;
  jobs : (float * (unit -> unit)) Queue.t;
      (* enqueue timestamp (0. when timing is disabled) and the job *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  escaped : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first exception a queued job let escape; re-raised on the caller
         path at the next pool operation instead of vanishing *)
  mutable lane_groups : lanes list;  (* open groups, closed by [shutdown] *)
}

(* A lane group: [lg_n] persistent lane handles multiplexed over
   [lg_groups] executors — the caller plus [lg_groups - 1] pool workers,
   each worker bound to the group for the group's lifetime by a
   long-running mailbox job. Lane [i] always runs on executor
   [i mod lg_groups], so a shard lane stays on the same domain from round
   to round (warm overlay caches); the per-round synchronization is one
   condition broadcast to start and one completion count at the barrier. *)
and lanes = {
  lg_pool : t;
  lg_n : int;
  lg_groups : int;  (* executors, caller included; >= 1 *)
  lg_mutex : Mutex.t;  (* guards the five mutable fields below *)
  lg_start : Condition.t;
  lg_done : Condition.t;
  mutable lg_fn : int -> unit;  (* current round's lane body *)
  mutable lg_round : int;  (* round generation; bumping it starts a round *)
  mutable lg_remaining : int;  (* worker groups still running this round *)
  mutable lg_closed : bool;
  lg_errors : (exn * Printexc.raw_backtrace) option array;
      (* per-lane, reset each round; distinct domains write distinct
         indices, read after the barrier *)
}

let default_domains () = Domain.recommended_domain_count ()

(* Observability: one handle per fact of pool life, registered once at
   module initialization. Counters are aggregated per lane (one atomic
   add per lane per fan-out), never per item. *)
let m_lanes =
  Metrics.gauge ~help:"Lanes (including the caller) of the most recently created pool"
    "lsdb_pool_lanes"

let m_maps =
  Metrics.counter ~help:"Parallel fan-outs executed" "lsdb_pool_maps_total"

let m_jobs =
  Metrics.counter ~help:"Queued lane jobs picked up by worker domains"
    "lsdb_pool_jobs_total"

let m_job_exceptions =
  Metrics.counter
    ~help:"Exceptions that escaped a queued job (invariant violations)"
    "lsdb_pool_job_exceptions_total"

let m_items_caller =
  Metrics.counter ~help:"Work items claimed by the calling domain's lane"
    ~labels:[ ("lane", "caller") ]
    "lsdb_pool_items_total"

let m_items_worker =
  Metrics.counter ~help:"Work items claimed by worker-domain lanes"
    ~labels:[ ("lane", "worker") ]
    "lsdb_pool_items_total"

let m_queue_wait =
  Metrics.histogram ~help:"Seconds a lane job waited in the queue before pickup"
    "lsdb_pool_queue_wait_seconds"

let m_lane_groups =
  Metrics.counter ~help:"Persistent lane groups created"
    "lsdb_pool_lane_groups_total"

let m_lane_rounds =
  Metrics.counter ~help:"Barrier-separated rounds run through lane groups"
    "lsdb_pool_lane_rounds_total"

let m_barrier_wait =
  Metrics.histogram
    ~help:"Seconds the caller waited at a lane-round barrier for the slowest lane"
    "lsdb_pool_barrier_wait_seconds"

(* Record the first exception a job lets escape; the next caller-path
   entry point ([map_array], [lanes_run]) re-raises it. The map/lane
   wrappers catch their own items' exceptions, so anything landing here
   is a wrapper invariant violation (or a raw [submit] job) — exactly
   the class of failure that must not vanish silently: a
   [Governor.Trip] that escaped its lane would otherwise turn a tripped
   closure into a silently incomplete one that nobody flags partial. *)
let note_escape t e =
  Metrics.incr m_job_exceptions;
  ignore
    (Atomic.compare_and_set t.escaped None
       (Some (e, Printexc.get_raw_backtrace ()))
      : bool)

let reraise_escaped t =
  match Atomic.exchange t.escaped None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let worker_loop t () =
  let rec run () =
    Mutex.lock t.mutex;
    let rec next () =
      if t.stopped then None
      else if Queue.is_empty t.jobs then begin
        Condition.wait t.nonempty t.mutex;
        next ()
      end
      else Some (Queue.pop t.jobs)
    in
    let job = next () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some (enqueued_at, job) ->
        Metrics.incr m_jobs;
        if enqueued_at > 0. then
          Metrics.observe m_queue_wait (Metrics.now () -. enqueued_at);
        (* The guard keeps a misbehaving job from killing the worker, but
           the exception is counted and parked for the caller path — never
           dropped on the floor. *)
        (try job () with e -> note_escape t e);
        run ()
  in
  run ()

let create ~domains =
  let size = max 1 domains in
  let t =
    {
      size;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopped = false;
      workers = [];
      escaped = Atomic.make None;
      lane_groups = [];
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
  Metrics.set m_lanes size;
  t

let size t = t.size

let submit t job =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push (0., job) t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* --- persistent lane groups ----------------------------------------- *)

let lane_worker lg g () =
  let run_lane fn i =
    try fn i
    with e -> lg.lg_errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let rec loop last_round =
    Mutex.lock lg.lg_mutex;
    while (not lg.lg_closed) && lg.lg_round = last_round do
      Condition.wait lg.lg_start lg.lg_mutex
    done;
    let closed = lg.lg_closed in
    let round = lg.lg_round in
    let fn = lg.lg_fn in
    Mutex.unlock lg.lg_mutex;
    if not closed then begin
      let i = ref g in
      while !i < lg.lg_n do
        run_lane fn !i;
        i := !i + lg.lg_groups
      done;
      Mutex.lock lg.lg_mutex;
      lg.lg_remaining <- lg.lg_remaining - 1;
      if lg.lg_remaining = 0 then Condition.broadcast lg.lg_done;
      Mutex.unlock lg.lg_mutex;
      loop round
    end
  in
  loop 0

let lanes t ~n =
  if n < 1 then invalid_arg "Pool.lanes: n must be >= 1";
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.lanes: pool is shut down"
  end;
  let groups = max 1 (min t.size n) in
  let lg =
    {
      lg_pool = t;
      lg_n = n;
      lg_groups = groups;
      lg_mutex = Mutex.create ();
      lg_start = Condition.create ();
      lg_done = Condition.create ();
      lg_fn = ignore;
      lg_round = 0;
      lg_remaining = 0;
      lg_closed = false;
      lg_errors = Array.make n None;
    }
  in
  Metrics.incr m_lane_groups;
  if groups > 1 then begin
    t.lane_groups <- lg :: t.lane_groups;
    for g = 1 to groups - 1 do
      Queue.push (0., lane_worker lg g) t.jobs
    done;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mutex;
  lg

let lanes_size lg = lg.lg_n

let lanes_run lg f =
  if lg.lg_closed then invalid_arg "Pool.lanes_run: lane group is closed";
  reraise_escaped lg.lg_pool;
  Array.fill lg.lg_errors 0 lg.lg_n None;
  Metrics.incr m_lane_rounds;
  let run_lane i =
    try f i
    with e -> lg.lg_errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  if lg.lg_groups = 1 then
    (* Single executor: every lane runs on the caller, in order. All
       lanes still run even if one fails, matching the multi-group path
       (which cannot stop stragglers), so failure behavior is identical
       at every pool size. *)
    for i = 0 to lg.lg_n - 1 do
      run_lane i
    done
  else begin
    Mutex.lock lg.lg_mutex;
    lg.lg_fn <- f;
    lg.lg_round <- lg.lg_round + 1;
    lg.lg_remaining <- lg.lg_groups - 1;
    Condition.broadcast lg.lg_start;
    Mutex.unlock lg.lg_mutex;
    (* The caller is executor 0 and always makes progress. *)
    let i = ref 0 in
    while !i < lg.lg_n do
      run_lane !i;
      i := !i + lg.lg_groups
    done;
    let wait_start = if Metrics.enabled () then Metrics.now () else 0. in
    Mutex.lock lg.lg_mutex;
    while lg.lg_remaining > 0 do
      Condition.wait lg.lg_done lg.lg_mutex
    done;
    Mutex.unlock lg.lg_mutex;
    if wait_start > 0. then
      Metrics.observe m_barrier_wait (Metrics.now () -. wait_start)
  end;
  (* Deterministic failure propagation, as in [map_array]: the
     lowest-indexed failing lane's exception is the one the caller
     sees. A [Governor.Trip] raised on a worker domain reaches the
     caller path here. *)
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    lg.lg_errors

let lanes_close lg =
  if not lg.lg_closed then begin
    Mutex.lock lg.lg_mutex;
    lg.lg_closed <- true;
    Condition.broadcast lg.lg_start;
    Mutex.unlock lg.lg_mutex;
    if lg.lg_groups > 1 then begin
      Mutex.lock lg.lg_pool.mutex;
      lg.lg_pool.lane_groups <-
        List.filter (fun l -> l != lg) lg.lg_pool.lane_groups;
      Mutex.unlock lg.lg_pool.mutex
    end
  end

let shutdown t =
  Mutex.lock t.mutex;
  let groups = t.lane_groups in
  t.lane_groups <- [];
  Mutex.unlock t.mutex;
  (* Release any worker still bound to an unclosed lane group, or the
     join below would wait forever on a domain blocked at [lg_start]. *)
  List.iter
    (fun lg ->
      Mutex.lock lg.lg_mutex;
      lg.lg_closed <- true;
      Condition.broadcast lg.lg_start;
      Mutex.unlock lg.lg_mutex)
    groups;
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.stopped <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let map_array t f input =
  if t.stopped then invalid_arg "Pool.map: pool is shut down";
  reraise_escaped t;
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let cursor = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let finished = Mutex.create () in
    let all_done = Condition.create () in
    Metrics.incr m_maps;
    (* Every lane (workers and the caller) claims indices from the shared
       cursor until the input is exhausted. Results and errors land at
       their input index, so scheduling cannot perturb the output. Item
       counts are accumulated locally and flushed once per lane. *)
    let lane items_counter () =
      let claimed = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          incr claimed;
          (match f input.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          if 1 + Atomic.fetch_and_add completed 1 = n then begin
            Mutex.lock finished;
            Condition.broadcast all_done;
            Mutex.unlock finished
          end;
          loop ()
        end
      in
      loop ();
      if !claimed > 0 then Metrics.add items_counter !claimed
    in
    let helpers = min (t.size - 1) (n - 1) in
    if helpers > 0 then begin
      let enqueued_at = if Metrics.enabled () then Metrics.now () else 0. in
      Mutex.lock t.mutex;
      for _ = 1 to helpers do
        Queue.push (enqueued_at, lane m_items_worker) t.jobs
      done;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex
    end;
    lane m_items_caller ();
    Mutex.lock finished;
    while Atomic.get completed < n do
      Condition.wait all_done finished
    done;
    Mutex.unlock finished;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every index completed without error *))
      results
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

let fold t ~f ~combine ~init xs = List.fold_left combine init (map t f xs)
