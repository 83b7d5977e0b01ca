type verdict =
  | Sat of bool array
  | Unsat
  | Timeout
  | Failed of string

type source =
  | Solved
  | Cache_hit
  | Dedup_join

type answer = {
  verdict : verdict;
  source : source;
  wall : float;
  solve_wall : float;
  stats : Sat.Solver.stats;
  fingerprint : Cnf.Fingerprint.t;
}

(* Hardness-triggered cube-and-conquer: a job whose first solve slice
   hits [cube_trigger] conflicts without an answer escalates to
   [Portfolio.Cuber]: the worker conquers beside [cube_jobs - 1]
   domains spawned for that job.  Small jobs answer inside the slice
   and never pay for the machinery. *)
type cube_config = {
  cube_trigger : int;     (* conflicts before a job escalates *)
  cube_count : int;       (* max cubes per escalated job *)
  cube_jobs : int;        (* conquest bodies, the worker included *)
  cube_probe_limit : int; (* lookahead probes per split node *)
}

let default_cube_config =
  { cube_trigger = 10_000; cube_count = 8; cube_jobs = 4;
    cube_probe_limit = 32 }

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  warm_capacity : int;
  limits : Sat.Solver.limits;
  default_deadline : float option;
  session_capacity : int;
  session_ttl : float option;
  cube : cube_config option;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    cache_capacity = 512;
    warm_capacity = 256;
    limits = Sat.Solver.no_limits;
    default_deadline = None;
    session_capacity = 64;
    session_ttl = Some 600.0;
    cube = None;
  }

(* A relative deadline must compose into a meaningful absolute instant:
   [now +. nan] poisons every later comparison ([deadline_passed] is
   never true, so the job runs unbounded — the monitor cannot save it),
   and a negative deadline is a caller unit mistake (ms passed as s,
   or vice versa) better rejected loudly than answered [Timeout]. *)
let valid_deadline = function
  | None -> true
  | Some s -> Float.is_finite s && s >= 0.0

(* A resolved job's payload, shared by every ticket attached to it. *)
type done_core = {
  d_verdict : verdict;
  d_stats : Sat.Solver.stats;
  d_solve_wall : float;
  d_done_at : float;
}

(* A job's phase moves queued -> running -> done, one way.  Whoever
   moves it out of [Queued] owns the job's completion: the worker that
   dequeues it, or the monitor timing it out before any worker did. *)
type phase = Queued | Running | Done

type job = {
  cnf : Cnf.Flat.t;
  fp : Cnf.Fingerprint.t;
  warm : Sat.Solver.seed option;  (* snapshot found at submit time *)
  deadline : float option;  (* absolute Wall.now instant *)
  submitted_at : float;
  interrupt : Aig.Interrupt.t;
  phase : phase Atomic.t;
  cell : done_core Sat.Ivar.t;
  mutable join_subs : float list;  (* dedup joiners' submit times; [gm] *)
}

(* A cache hit is a ticket whose cell is already full. *)
type ticket = {
  cell : done_core Sat.Ivar.t;
  source : source;
  t_submit : float;
  fingerprint : Cnf.Fingerprint.t;
}

module Fp_tbl = Hashtbl.Make (struct
  type t = Cnf.Fingerprint.t

  let equal = Cnf.Fingerprint.equal
  let hash = Cnf.Fingerprint.hash
end)

(* The shared work queue carries both one-shot jobs and session
   scheduling tokens.  A token makes a worker run exactly one of that
   session's pending ops and then re-enqueue the token (if more ops
   wait) — so a session with a thousand queued ops interleaves with
   one-shot jobs and other sessions at op granularity instead of
   holding a worker until drained. *)
type work =
  | W_job of job
  | W_session of Session.t

type t = {
  cfg : config;
  queue : work Job_queue.t;
  cache : Cache.t;
  (* Warm-start snapshots; [None] when disabled ([warm_capacity = 0]). *)
  warm : Cache.Warm.t option;
  metrics : Metrics.t;
  inflight : job Fp_tbl.t;  (* guarded by [gm] *)
  sessions : (int, Session.t) Hashtbl.t;  (* guarded by [gm] *)
  retired : (int, [ `Closed | `Evicted ]) Hashtbl.t;  (* guarded by [gm] *)
  gm : Mutex.t;
  stopping : bool Atomic.t;
  monitor_stop : bool Atomic.t;
  mutable next_sid : int;  (* guarded by [gm] *)
  mutable domains : unit Domain.t list;  (* workers + monitor *)
}

(* --- job resolution -------------------------------------------------

   Claim -> side effects -> publish.  The caller of [finalize] has
   claimed the job by moving it out of [Queued]; it alone touches the
   cache, the in-flight table and the metrics, and it does so {e
   before} the fill wakes the awaiters — an observer that holds an
   answer can rely on the stats already accounting for it.  Each
   counter of the ledger changes in the same [gm] section as the table
   it pairs with, and [stats] reads both under [gm], so a snapshot
   always reconciles.  Lock order: [gm] before the metrics mutex. *)

let finalize t job ?snapshot ~verdict ~stats ~solve_wall () =
  let core =
    { d_verdict = verdict; d_stats = stats; d_solve_wall = solve_wall;
      d_done_at = Sat.Wall.now () }
  in
  (match verdict with
   | Sat m ->
     Cache.add t.cache job.fp
       { Cache.verdict = Cache.Sat m; stats; solve_wall }
   | Unsat ->
     Cache.add t.cache job.fp
       { Cache.verdict = Cache.Unsat; stats; solve_wall }
   | Timeout | Failed _ -> ());
  (* The warm cache holds a fingerprint's snapshot only while its
     last outcome is [Timeout], the one answer the verdict cache never
     stores: a resubmitted timed-out job resumes from the interrupted
     state instead of restarting, and repeated deadline slices
     accumulate progress.  A decided job's snapshot would never be
     read — its verdict answers first — so it is dropped, with any
     older one; a [Failed] job's state, or the seed it started from,
     must not seed the next attempt.  A timeout that made no snapshot
     (cut while queued, or escalated to cubes) keeps the older one. *)
  (match (t.warm, verdict, snapshot) with
   | None, _, _ | Some _, Timeout, None -> ()
   | Some w, Timeout, Some sd -> Cache.Warm.add w job.fp sd
   | Some w, (Sat _ | Unsat | Failed _), _ -> Cache.Warm.remove w job.fp);
  Mutex.lock t.gm;
  Fp_tbl.remove t.inflight job.fp;
  Metrics.add t.metrics
    (match verdict with
     | Sat _ -> Solved_sat
     | Unsat -> Solved_unsat
     | Timeout -> Timeouts
     | Failed _ -> Failures);
  let joins = job.join_subs in
  Mutex.unlock t.gm;
  List.iter
    (fun ts -> Metrics.observe t.metrics Latency (core.d_done_at -. ts))
    (job.submitted_at :: joins);
  Atomic.set job.phase Done;
  ignore (Sat.Ivar.fill job.cell core)

(* --- solving --------------------------------------------------------- *)

let deadline_passed job now =
  match job.deadline with Some d -> now >= d | None -> false

(* The one way a worker solves a job: plain CDCL on the submitted
   store, warm-start aware, with optional hardness-triggered
   cube-and-conquer escalation.  Returns the solve result, its stats,
   the warm snapshot captured at exit and the cube report when the job
   escalated. *)
let direct_leg t (job : job) =
  let limits =
    { t.cfg.limits with Sat.Solver.deadline = job.deadline }
  in
  (match job.warm with
   | Some _ -> Metrics.add t.metrics Warm_seeded
   | None -> ());
  let snap = ref None in
  let config =
    { Sat.Solver.default_config with
      seed = job.warm;
      snapshot =
        (match t.warm with
         | Some _ -> Some (fun sd -> snap := Some sd)
         | None -> None) }
  in
  let cube = t.cfg.cube in
  (* With cubing configured, the first slice is capped at the
     hardness trigger: a job that answers inside the slice took the
     exact path it would have without cubing. *)
  let trigger_limits =
    match cube with
    | None -> limits
    | Some cc ->
      let cap =
        match limits.Sat.Solver.max_conflicts with
        | Some m -> min m cc.cube_trigger
        | None -> cc.cube_trigger
      in
      { limits with Sat.Solver.max_conflicts = Some cap }
  in
  let result, stats =
    Sat.Solver.solve_flat ~config ~limits:trigger_limits job.cnf
  in
  match (result, cube) with
  | Sat.Solver.Unknown, Some cc
    when stats.Sat.Solver.conflicts >= cc.cube_trigger
         && (match limits.Sat.Solver.max_conflicts with
             | Some m -> cc.cube_trigger < m
             | None -> true)
         && (not (deadline_passed job (Sat.Wall.now ())))
         && (not (Aig.Interrupt.is_set job.interrupt))
         && not (Atomic.get t.stopping) ->
    (* Hardness trigger crossed: escalate to cube-and-conquer under
       the job's own deadline and interrupt.  The slice's snapshot
       is dropped — a cube job must not feed the warm cache (the
       cube solves bake assumption-local phases and activity into
       their state; see the warm-start soundness contract). *)
    let rep =
      Portfolio.Cuber.solve ~cubes:cc.cube_count
        ~probe_limit:cc.cube_probe_limit ~jobs:cc.cube_jobs ~limits
        job.cnf
    in
    Metrics.add t.metrics Cubed;
    Metrics.add t.metrics ~n:rep.Portfolio.Cuber.solved Cubes_solved;
    Metrics.add t.metrics ~n:rep.Portfolio.Cuber.steals Cube_steals;
    (rep.Portfolio.Cuber.result, rep.Portfolio.Cuber.stats, None,
     Some rep)
  | _ -> (result, stats, !snap, None)

let classify t job result stats solve_wall snapshot ~cube =
  let verdict =
    match result with
    | Sat.Solver.Sat m ->
      (* Never serve an unverified model: the check is linear in the
         formula and turns any would-be wrong answer (a solver bug, a
         corrupt warm seed) into an explicit failure.  A model of the
         wrong length fails too — [Flat.eval] would raise on it. *)
      if Array.length m = job.cnf.Cnf.Flat.num_vars && Cnf.Flat.eval job.cnf m
      then Sat m
      else Failed "model verification failed"
    | Sat.Solver.Unsat -> (
      (* Claim→publish soundness guard: an UNSAT assembled from cube
         jobs is only publishable — and verdict-cacheable — for the
         base fingerprint when every cube was refuted (equivalently,
         when the stitched proof could be sealed).  A partial conquest
         must never launder an assumption-relative UNSAT into a cached
         verdict. *)
      match cube with
      | Some rep when not rep.Portfolio.Cuber.refutation_complete ->
        Failed "incomplete cube refutation"
      | _ -> Unsat)
    | Sat.Solver.Unknown -> (
      match cube with
      | Some rep
        when rep.Portfolio.Cuber.failure <> None
             && not (deadline_passed job (Sat.Wall.now ()))
        ->
        (* A cube race that died mid-way resolves FAILED, not a
           resource answer — and certainly not UNSAT. *)
        Failed
          (Printf.sprintf "cube job failed: %s"
             (Option.value ~default:"?" rep.Portfolio.Cuber.failure))
      | _ ->
        if deadline_passed job (Sat.Wall.now ()) then
          Timeout
        else if Atomic.get t.stopping then Failed "server shutdown"
        else Timeout (* a configured base limit: still a resource answer *))
  in
  finalize t job ?snapshot ~verdict ~stats ~solve_wall ()

(* Remove a self-closed session from the live table.  The session may
   already be gone (evicted by the monitor in the same instant); the
   retired mark keeps later ops on its id answering deterministically. *)
let retire_closed t s =
  let sid = Session.id s in
  Mutex.lock t.gm;
  if Hashtbl.mem t.sessions sid then begin
    Hashtbl.remove t.sessions sid;
    Hashtbl.replace t.retired sid `Closed;
    Metrics.add t.metrics Sessions_closed
  end;
  Mutex.unlock t.gm

let note_session_step t (step : Session.step) =
  match step.Session.executed with
  | Some (Session.Solve _, a) ->
    Metrics.add t.metrics Session_solves;
    Metrics.observe t.metrics Latency a.Session.wall
  | _ -> ()

let run_session_token t s =
  let step =
    Session.run_one ~limits:t.cfg.limits
      ~stopping:(fun () -> Atomic.get t.stopping)
      s
  in
  note_session_step t step;
  match step.Session.next with
  | `More ->
    (* Session tokens ride at priority 0 — the one-shot default — so
       round-robin fairness falls out of the queue's FIFO-within-
       priority order.  [push_force] cannot bounce off the admission
       cap; it fails only on a closed queue (shutdown), where the
       pending ops are failed by the shutdown sweep. *)
    if not (Job_queue.push_force t.queue ~priority:0 (W_session s)) then
      Session.kill s "server shutdown"
  | `Idle -> ()
  | `Closed -> retire_closed t s

let worker_loop t () =
  let rec loop () =
    match Job_queue.pop t.queue with
    | None -> ()
    | Some (W_session s) ->
      run_session_token t s;
      loop ()
    | Some (W_job job) ->
      (if not (Atomic.compare_and_set job.phase Queued Running) then
         () (* timed out by the monitor while queued *)
       else if Atomic.get t.stopping then
         finalize t job ~verdict:(Failed "server shutdown")
           ~stats:Sat.Solver.empty_stats ~solve_wall:0.0 ()
       else if deadline_passed job (Sat.Wall.now ()) then
         finalize t job ~verdict:Timeout ~stats:Sat.Solver.empty_stats
           ~solve_wall:0.0 ()
       else begin
         let t0 = Sat.Wall.now () in
         match
           Aig.Interrupt.within job.interrupt (fun () -> direct_leg t job)
         with
         | result, stats, snapshot, cube ->
           classify t job result stats (Sat.Wall.now () -. t0) snapshot ~cube
         | exception e ->
           finalize t job
             ~verdict:(Failed (Printexc.to_string e))
             ~stats:Sat.Solver.empty_stats
             ~solve_wall:(Sat.Wall.now () -. t0)
             ()
       end);
      loop ()
  in
  loop ()

(* Idle-TTL sweep: evict sessions idle past the configured TTL.
   Re-checked under [gm] so a session that just accepted an op is
   spared; the [Session.evict] call itself runs outside [gm], since it
   answers the session's pending ops and their callbacks may re-enter
   the engine. *)
let evict_expired_sessions t ~now =
  match t.cfg.session_ttl with
  | None -> ()
  | Some ttl ->
    let expired =
      Mutex.lock t.gm;
      let es =
        Hashtbl.fold
          (fun sid s acc ->
            if Session.is_idle s && now -. Session.last_use s >= ttl then
              (sid, s) :: acc
            else acc)
          t.sessions []
      in
      List.iter
        (fun (sid, _) ->
          Hashtbl.remove t.sessions sid;
          Hashtbl.replace t.retired sid `Evicted;
          Metrics.add t.metrics Sessions_evicted)
        es;
      Mutex.unlock t.gm;
      es
    in
    List.iter (fun (_, s) -> Session.evict s) expired

(* The deadline monitor: a few-millisecond heartbeat that scans the
   in-flight table and the session table.  A queued job whose deadline
   passed resolves to [Timeout] immediately (it never waits for a
   worker) — the monitor claims it by moving it out of [Queued]
   itself, so a worker that dequeues it later skips it; a running one
   — one-shot or mid-session — gets its interrupt set and resolves
   within one solver budget tick. *)
let monitor_loop t () =
  while not (Atomic.get t.monitor_stop) do
    Unix.sleepf 0.002;
    let jobs, sessions =
      Mutex.lock t.gm;
      let js = Fp_tbl.fold (fun _ j acc -> j :: acc) t.inflight [] in
      let ss = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
      Mutex.unlock t.gm;
      (js, ss)
    in
    let now = Sat.Wall.now () in
    List.iter
      (fun job ->
        if deadline_passed job now then
          if Atomic.compare_and_set job.phase Queued Done then
            finalize t job ~verdict:Timeout ~stats:Sat.Solver.empty_stats
              ~solve_wall:0.0 ()
          else Aig.Interrupt.set job.interrupt)
      jobs;
    List.iter (fun s -> Session.interrupt_if_overdue s ~now) sessions;
    evict_expired_sessions t ~now
  done

(* --- public API ------------------------------------------------------ *)

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Engine.create: workers < 1";
  if config.warm_capacity < 0 then
    invalid_arg "Engine.create: warm_capacity < 0";
  if config.session_capacity < 1 then
    invalid_arg "Engine.create: session_capacity < 1";
  if not (valid_deadline config.default_deadline) then
    invalid_arg "Engine.create: bad default_deadline";
  (match config.session_ttl with
   | Some ttl when not (Float.is_finite ttl && ttl > 0.0) ->
     invalid_arg "Engine.create: bad session_ttl"
   | _ -> ());
  let t =
    {
      cfg = config;
      queue = Job_queue.create ~capacity:config.queue_capacity ();
      cache = Cache.create ~capacity:config.cache_capacity ();
      warm =
        (if config.warm_capacity > 0 then
           Some (Cache.Warm.create ~capacity:config.warm_capacity ())
         else None);
      metrics = Metrics.create ();
      inflight = Fp_tbl.create 64;
      sessions = Hashtbl.create 64;
      retired = Hashtbl.create 64;
      gm = Mutex.create ();
      stopping = Atomic.make false;
      monitor_stop = Atomic.make false;
      next_sid = 0;
      domains = [];
    }
  in
  let workers =
    List.init config.workers (fun _ -> Domain.spawn (worker_loop t))
  in
  let monitor = Domain.spawn (monitor_loop t) in
  t.domains <- monitor :: workers;
  t

(* Every refusal counts once in [rejected], where it is decided. *)
let reject t reason =
  Metrics.add t.metrics Rejected;
  Error reason

(* A cached model is verified against the formula actually submitted —
   equal fingerprints guarantee equal model sets, so a failure here is
   a detected hash collision: drop the entry and fall through to a
   real solve. *)
let lookup t fp cnf =
  match Cache.find t.cache fp with
  | None -> None
  | Some e -> (
    match e.Cache.verdict with
    | Cache.Unsat -> Some (Unsat, e)
    | Cache.Sat m ->
      if Cnf.Flat.eval cnf m then Some (Sat (Array.copy m), e)
      else begin
        Cache.remove t.cache fp;
        None
      end)

(* Join the in-flight job for [fp], or queue a new one. *)
let enqueue t ~now ?deadline ~priority cnf fp =
  Mutex.lock t.gm;
  if Atomic.get t.stopping then begin
    Mutex.unlock t.gm;
    reject t "server shutting down"
  end
  else
    match Fp_tbl.find_opt t.inflight fp with
    | Some job ->
      job.join_subs <- now :: job.join_subs;
      Mutex.unlock t.gm;
      Metrics.add t.metrics Dedup_joins;
      Ok { cell = job.cell; source = Dedup_join; t_submit = now;
           fingerprint = fp }
    | None ->
      (* Warm lookup happens at submit time (not solve time) so the
         snapshot travels with the job even if the warm cache evicts
         the entry while the job is queued. *)
      let warm =
        match t.warm with
        | Some w -> Cache.Warm.find w fp
        | None -> None
      in
      let job =
        {
          cnf;
          fp;
          warm;
          deadline =
            (match deadline with
             | Some s -> Some (now +. s)
             | None -> Option.map (fun s -> now +. s) t.cfg.default_deadline);
          submitted_at = now;
          interrupt = Aig.Interrupt.create ();
          phase = Atomic.make Queued;
          cell = Sat.Ivar.create ();
          join_subs = [];
        }
      in
      (* In-flight before enqueue, so a concurrent identical submit
         joins this job even while it is still queued. *)
      Fp_tbl.replace t.inflight fp job;
      if Job_queue.push t.queue ~priority (W_job job) then begin
        (* A warm-started submit counts as [warm_hits], not
           [submitted] — the two are disjoint legs of the request
           reconciliation. *)
        Metrics.add t.metrics
          (match job.warm with Some _ -> Warm_hits | None -> Submitted);
        Mutex.unlock t.gm;
        Ok { cell = job.cell; source = Solved; t_submit = now;
             fingerprint = fp }
      end
      else begin
        Fp_tbl.remove t.inflight fp;
        Mutex.unlock t.gm;
        reject t
          (Printf.sprintf "queue full (capacity %d)"
             (Job_queue.capacity t.queue))
      end

(* The submit path: lookup → enqueue. *)
let submit_live t ?deadline ~priority cnf =
  let now = Sat.Wall.now () in
  let fp = Cnf.Fingerprint.of_flat cnf in
  match lookup t fp cnf with
  | Some (verdict, e) ->
    let core =
      { d_verdict = verdict; d_stats = e.Cache.stats;
        d_solve_wall = e.Cache.solve_wall; d_done_at = Sat.Wall.now () }
    in
    Metrics.add t.metrics Cache_hits;
    Metrics.observe t.metrics Latency (core.d_done_at -. now);
    let cell = Sat.Ivar.create () in
    ignore (Sat.Ivar.fill cell core);
    Ok { cell; source = Cache_hit; t_submit = now; fingerprint = fp }
  | None -> enqueue t ~now ?deadline ~priority cnf fp

(* The stopping check comes before the cache lookup: a shut-down
   server rejects every submit, even one it could answer from memory
   — [shutdown] means "this instance no longer answers". *)
let submit t ?deadline ?(priority = 0) cnf =
  if Atomic.get t.stopping then reject t "server shutting down"
  else if not (valid_deadline deadline) then reject t "bad-deadline"
  else submit_live t ?deadline ~priority cnf

(* Drop a fingerprint's verdict: the next identical submit re-solves
   fresh, since a decided formula leaves no warm snapshot.  Useful
   when a client wants a fresh model for a formula it already
   solved. *)
let forget_verdict t fp = Cache.remove t.cache fp

let answer_of (tk : ticket) core =
  {
    verdict = core.d_verdict;
    source = tk.source;
    wall = core.d_done_at -. tk.t_submit;
    solve_wall = core.d_solve_wall;
    stats = core.d_stats;
    fingerprint = tk.fingerprint;
  }

let await _t tk = answer_of tk (Sat.Ivar.await tk.cell)
let poll _t tk = Option.map (answer_of tk) (Sat.Ivar.peek tk.cell)
let on_answer _t tk k = Sat.Ivar.upon tk.cell (fun c -> k (answer_of tk c))

let solve t ?deadline ?priority cnf =
  Result.map (await t) (submit t ?deadline ?priority cnf)

(* --- sessions -------------------------------------------------------- *)

(* LRU victim among the idle live sessions; caller holds [gm]. *)
let lru_idle_session t =
  Hashtbl.fold
    (fun sid s best ->
      if not (Session.is_idle s) then best
      else
        match best with
        | Some (_, bs) when Session.last_use bs <= Session.last_use s ->
          best
        | _ -> Some (sid, s))
    t.sessions None

let open_session t =
  if Atomic.get t.stopping then reject t "server shutting down"
  else begin
    Mutex.lock t.gm;
    let victim =
      if Hashtbl.length t.sessions >= t.cfg.session_capacity then begin
        match lru_idle_session t with
        | Some (vsid, vs) ->
          Hashtbl.remove t.sessions vsid;
          Hashtbl.replace t.retired vsid `Evicted;
          Metrics.add t.metrics Sessions_evicted;
          Some vs
        | None -> None
      end
      else None
    in
    let full = Hashtbl.length t.sessions >= t.cfg.session_capacity in
    let opened =
      if full then None
      else begin
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let s = Session.create ~id:sid () in
        Hashtbl.replace t.sessions sid s;
        Metrics.add t.metrics Sessions_opened;
        Some sid
      end
    in
    Mutex.unlock t.gm;
    Option.iter Session.evict victim;
    match opened with
    | Some sid -> Ok sid
    | None ->
      (* At capacity with every session busy — admission control at
         the session-table edge, same refusal shape as a full queue. *)
      reject t
        (Printf.sprintf "session table full (capacity %d)"
           t.cfg.session_capacity)
  end

let session_submit t sid op =
  if Atomic.get t.stopping then reject t "server shutting down"
  else begin
    Mutex.lock t.gm;
    let found =
      match Hashtbl.find_opt t.sessions sid with
      | Some s -> `Live s
      | None -> (
        match Hashtbl.find_opt t.retired sid with
        | Some r -> `Retired r
        | None -> `Unknown)
    in
    Mutex.unlock t.gm;
    match found with
    | `Unknown -> reject t "unknown session"
    | `Retired r ->
      (* A deterministic answer for the id's afterlife: ops on a
         closed or evicted session resolve immediately instead of
         erroring — the client learns the lifecycle state. *)
      Metrics.add t.metrics Session_ops;
      let outcome =
        match r with
        | `Evicted -> Session.Evicted
        | `Closed -> Session.Failed "session closed"
      in
      Ok (Session.resolved_ticket op outcome)
    | `Live s -> (
      match Session.enqueue s op with
      | `Full -> reject t "session queue full"
      | `Queued ticket ->
        Metrics.add t.metrics Session_ops;
        Ok ticket
      | `Scheduled ticket ->
        Metrics.add t.metrics Session_ops;
        if not (Job_queue.push_force t.queue ~priority:0 (W_session s))
        then Session.kill s "server shutdown";
        Ok ticket)
  end

let session_op t sid op = Result.map (Session.await) (session_submit t sid op)
let session_add t sid clauses = session_op t sid (Session.Add clauses)
let session_assume t sid lits = session_op t sid (Session.Assume lits)
let session_push t sid = session_op t sid Session.Push
let session_pop t sid = session_op t sid Session.Pop
let close_session t sid = session_op t sid Session.Close

let submit_session_solve t ?deadline sid =
  if not (valid_deadline deadline) then reject t "bad-deadline"
  else
    let deadline = Option.map (fun s -> Sat.Wall.now () +. s) deadline in
    session_submit t sid (Session.Solve { deadline })

let solve_session t ?deadline sid =
  Result.map Session.await (submit_session_solve t ?deadline sid)

let sessions_live t =
  Mutex.lock t.gm;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.gm;
  n

(* The table sizes and the counters paired with them are read in one
   [gm] section: the ledger identities hold in every snapshot.  Only
   the copy is made there; the timing windows are sorted after both
   locks are released, so a STATS loop does not hold up the workers. *)
let stats t =
  Metrics.of_reading
    (Mutex.protect t.gm (fun () ->
         Metrics.read t.metrics
           ~sampled:
             [
               (Queue_depth, Job_queue.length t.queue);
               (Inflight, Fp_tbl.length t.inflight);
               (Cache_entries, Cache.length t.cache);
               (Sessions_live, Hashtbl.length t.sessions);
               ( Warm_entries,
                 match t.warm with Some w -> Cache.Warm.length w | None -> 0 );
             ]))

let stats_json t = Metrics.to_json (stats t)
let metrics t = t.metrics

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Cancel running solves; queued jobs are drained by the workers,
       which answer them [Failed "server shutdown"] without solving.
       Sessions are killed the same way: their running solve is
       interrupted and every queued op answers [Failed] — [resolve] is
       idempotent, so racing an executing worker is harmless. *)
    Mutex.lock t.gm;
    let jobs = Fp_tbl.fold (fun _ j acc -> j :: acc) t.inflight [] in
    let sessions = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
    Mutex.unlock t.gm;
    List.iter (fun job -> Aig.Interrupt.set job.interrupt) jobs;
    List.iter (fun s -> Session.kill s "server shutdown") sessions;
    Job_queue.close t.queue;
    let domains = t.domains in
    t.domains <- [];
    Atomic.set t.monitor_stop true;
    List.iter Domain.join domains
  end
