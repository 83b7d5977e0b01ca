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

type mode =
  | Direct
  | Simplify
  | Portfolio of { jobs : int; share_lbd : int }

(* Hardness-triggered cube-and-conquer (Direct mode): a job whose
   first solve slice hits [cube_trigger] conflicts without an answer
   escalates to [Portfolio.Cuber] on the worker's cube pool.  Small
   jobs answer inside the slice and never pay for the machinery. *)
type cube_config = {
  cube_trigger : int;     (* conflicts before a job escalates *)
  cube_count : int;       (* max cubes per escalated job *)
  cube_jobs : int;        (* cube pool domains per worker *)
  cube_probe_limit : int; (* lookahead probes per split node *)
}

let default_cube_config =
  { cube_trigger = 10_000; cube_count = 8; cube_jobs = 4;
    cube_probe_limit = 32 }

(* Learned dispatch (Direct mode): a policy picks per-job decisions at
   submit time — lanes to race, simplify on/off, cube-trigger override
   — from cheap features of the clause store, and (with [admission]
   on) predicts hopeless jobs out of the queue.  [trace] logs every
   one-shot completion for offline training, model or not. *)
type dispatch_config = {
  policy : Dispatch.Policy.t option;
  trace : Dispatch.Tracelog.t option;
  admission : bool;
}

(* A predicted-timeout rejection needs high confidence: only jobs whose
   predicted latency exceeds this multiple of their deadline are
   refused admission. *)
let admission_margin = 4.0

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  warm_capacity : int;
  mode : mode;
  limits : Sat.Solver.limits;
  default_deadline : float option;
  session_capacity : int;
  session_ttl : float option;
  cube : cube_config option;
  dispatch : dispatch_config option;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    cache_capacity = 512;
    warm_capacity = 256;
    mode = Direct;
    limits = Sat.Solver.no_limits;
    default_deadline = None;
    session_capacity = 64;
    session_ttl = Some 600.0;
    cube = None;
    dispatch = None;
  }

(* A relative deadline must compose into a meaningful absolute instant:
   [now +. nan] poisons every later comparison ([deadline_passed] is
   never true, so the job runs unbounded — the monitor cannot save it),
   and a negative deadline is a caller unit mistake (ms passed as s,
   or vice versa) better rejected loudly than answered [Timeout]. *)
let valid_deadline = function
  | None -> true
  | Some s -> Float.is_finite s && s >= 0.0

let empty_stats =
  {
    Sat.Solver.decisions = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
    reduces = 0;
    probed = 0;
    vivified = 0;
    inproc_subsumed = 0;
    max_decision_level = 0;
    time = 0.0;
    cpu_time = 0.0;
    minor_words = 0.0;
    major_collections = 0;
  }

(* A resolved job's payload, shared by every ticket attached to it. *)
type done_core = {
  d_verdict : verdict;
  d_stats : Sat.Solver.stats;
  d_solve_wall : float;
  d_done_at : float;
}

type job = {
  id : int;
  cnf : Cnf.Flat.t;
  fp : Cnf.Fingerprint.t;
  warm : Sat.Solver.seed option;  (* snapshot found at submit time *)
  features : float array option;  (* extracted when dispatch is on *)
  decision : Dispatch.Policy.decision option;  (* model's pick, if any *)
  deadline : float option;  (* absolute Wall.now instant *)
  submitted_at : float;
  interrupt : Sat.Solver.Interrupt.t;
  jm : Mutex.t;
  jc : Condition.t;
  mutable state : done_core option;  (* None = waiting/running *)
  mutable claimed : bool;  (* a resolver owns this job's completion *)
  mutable running : bool;      (* set by the worker at dequeue (under jm) *)
  mutable timed_out : bool;    (* set by the monitor with the interrupt *)
  mutable join_subs : float list;  (* dedup joiners' submit times *)
  mutable waiters : (done_core -> unit) list;
      (* async-completion callbacks (under jm); run once, after
         [publish] releases the job mutex, on the resolver's domain *)
}

type ticket =
  | T_ready of answer
  | T_job of { job : job; source : source; t_submit : float }

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
  (* Warm-start snapshots; [None] when disabled ([warm_capacity = 0])
     or when the mode cannot seed (Simplify transforms the formula,
     Portfolio lanes race diversified configurations — neither takes a
     snapshot today, so keeping a warm cache there would only miss). *)
  warm : Cache.Warm.t option;
  metrics : Metrics.t;
  inflight : job Fp_tbl.t;  (* guarded by [gm] *)
  sessions : (int, Session.t) Hashtbl.t;  (* guarded by [gm] *)
  retired : (int, [ `Closed | `Evicted ]) Hashtbl.t;  (* guarded by [gm] *)
  gm : Mutex.t;
  stopping : bool Atomic.t;
  monitor_stop : bool Atomic.t;
  mutable next_id : int;  (* guarded by [gm] *)
  mutable next_sid : int;  (* guarded by [gm] *)
  mutable domains : unit Domain.t list;  (* workers + monitor *)
}

(* --- job resolution -------------------------------------------------

   Exactly one resolver wins [try_claim] (worker vs. deadline monitor
   vs. shutdown drain); only the winner touches the cache, the
   in-flight table and the metrics, and it does so {e before}
   [publish] wakes the awaiters — an observer that holds an answer can
   rely on the stats already accounting for it.  Lock order is
   strictly job-then-global, never nested the other way. *)

let try_claim job =
  Mutex.lock job.jm;
  let first = not job.claimed in
  job.claimed <- true;
  Mutex.unlock job.jm;
  first

let publish job core =
  Mutex.lock job.jm;
  job.state <- Some core;
  Condition.broadcast job.jc;
  let waiters = job.waiters in
  job.waiters <- [];
  Mutex.unlock job.jm;
  (* Callbacks run outside every engine lock, so they may re-enter the
     engine (submit a follow-up, read stats) without deadlocking.  A
     raising callback must not take the resolver down with it — the
     other waiters still deserve their wake-up. *)
  List.iter (fun k -> try k core with _ -> ()) waiters

(* What an engine without a model does with a job — recorded in trace
   entries so a model-less serving fleet still produces labeled
   training data for exactly the decisions it took. *)
let static_decision t =
  {
    Dispatch.Policy.lanes =
      (match t.cfg.mode with Portfolio { jobs; _ } -> jobs | _ -> 1);
    simplify = t.cfg.mode = Simplify;
    cube_trigger = Option.map (fun cc -> cc.cube_trigger) t.cfg.cube;
    predicted_ms = Float.nan;
  }

let trace_completion t job core =
  match t.cfg.dispatch with
  | Some { trace = Some tl; _ } -> (
    match job.features with
    | None -> ()
    | Some feat ->
      let d =
        match job.decision with Some d -> d | None -> static_decision t
      in
      let outcome =
        match core.d_verdict with
        | Sat _ -> "sat"
        | Unsat -> "unsat"
        | Timeout -> "timeout"
        | Failed _ -> "failed"
      in
      Dispatch.Tracelog.append tl
        {
          Dispatch.Tracelog.fingerprint = Cnf.Fingerprint.to_hex job.fp;
          features = feat;
          lanes = d.Dispatch.Policy.lanes;
          simplify = d.Dispatch.Policy.simplify;
          cube_trigger =
            (match d.Dispatch.Policy.cube_trigger with
            | Some n -> n
            | None -> 0);
          outcome;
          conflicts = core.d_stats.Sat.Solver.conflicts;
          solve_ms = 1000.0 *. core.d_solve_wall;
          wall_ms = 1000.0 *. (core.d_done_at -. job.submitted_at);
          decided = job.decision <> None;
        })
  | _ -> ()

let finalize t job ?snapshot ~verdict ~stats ~solve_wall () =
  if try_claim job then begin
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
    (* The warm cache keeps snapshots for every outcome that produced
       one — crucially including [Timeout], which the verdict cache
       never stores: a resubmitted timed-out job resumes from the
       interrupted state instead of restarting, and repeated deadline
       slices accumulate progress. *)
    (match (t.warm, snapshot) with
     | Some w, Some sd -> Cache.Warm.add w job.fp sd
     | _ -> ());
    Mutex.lock t.gm;
    Fp_tbl.remove t.inflight job.fp;
    let joins = job.join_subs in
    Mutex.unlock t.gm;
    Metrics.add t.metrics
      (match verdict with
       | Sat _ -> Solved_sat
       | Unsat -> Solved_unsat
       | Timeout -> Timeouts
       | Failed _ -> Failures);
    List.iter
      (fun ts -> Metrics.observe t.metrics Latency (core.d_done_at -. ts))
      (job.submitted_at :: joins);
    trace_completion t job core;
    publish job core
  end

(* --- solving --------------------------------------------------------- *)

let deadline_passed job now =
  match job.deadline with Some d -> now >= d | None -> false

(* Run one job's solve.  In [Direct] mode the solve is warm-start
   aware: a snapshot found at submit time seeds it, and the state at
   exit is captured for the warm cache (returned as the third
   component).  [Simplify]/[Portfolio] solve a transformed formula or
   race diversified lanes; neither seeds nor captures.  The fourth
   component is the cube report when the job escalated to
   cube-and-conquer. *)
(* The plain CDCL lane, warm-start aware, with optional hardness-
   triggered cube-and-conquer escalation.  [cube] is per-job: the
   static config in plain Direct mode, possibly overridden by a
   dispatch decision. *)
let direct_leg t pool (job : job) limits ~cube =
  (match job.warm with
   | Some _ -> Metrics.add t.metrics Warm_seeded
   | None -> ());
  let snap = ref None in
  let snapshot =
    match t.warm with
    | Some _ -> Some (fun sd -> snap := Some sd)
    | None -> None
  in
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
    Sat.Solver.solve_flat ~limits:trigger_limits ~interrupt:job.interrupt
      ?seed:job.warm ?snapshot job.cnf
  in
  match (result, cube) with
  | Sat.Solver.Unknown, Some cc
    when stats.Sat.Solver.conflicts >= cc.cube_trigger
         && (match limits.Sat.Solver.max_conflicts with
             | Some m -> cc.cube_trigger < m
             | None -> true)
         && (not job.timed_out)
         && (not (deadline_passed job (Sat.Wall.now ())))
         && (not (Sat.Solver.Interrupt.is_set job.interrupt))
         && not (Atomic.get t.stopping) ->
    (* Hardness trigger crossed: escalate to cube-and-conquer under
       the job's own deadline and interrupt.  The slice's snapshot
       is dropped — a cube job must not feed the warm cache (the
       cube solves bake assumption-local phases and activity into
       their state; see the warm-start soundness contract). *)
    let rep =
      let f = Cnf.Flat.to_formula job.cnf in
      match pool with
      | Some p ->
        Portfolio.Cuber.solve_in ~cubes:cc.cube_count
          ~probe_limit:cc.cube_probe_limit ~limits
          ~interrupt:job.interrupt p f
      | None ->
        Portfolio.Cuber.solve ~cubes:cc.cube_count
          ~probe_limit:cc.cube_probe_limit ~jobs:1 ~limits
          ~interrupt:job.interrupt f
    in
    Metrics.add t.metrics Cubed;
    Metrics.add t.metrics ~n:rep.Portfolio.Cuber.solved Cubes_solved;
    Metrics.add t.metrics ~n:rep.Portfolio.Cuber.steals Cube_steals;
    (rep.Portfolio.Cuber.result, rep.Portfolio.Cuber.stats, None,
     Some rep)
  | _ -> (result, stats, !snap, None)

let simplify_leg (job : job) limits =
  let inst =
    Eda4sat.Instance.of_cnf
      ~name:(Printf.sprintf "job-%d" job.id)
      (Cnf.Flat.to_formula job.cnf)
  in
  let rep =
    Eda4sat.Pipeline.solve_direct ~limits ~interrupt:job.interrupt
      ~simplify:true inst
  in
  (rep.Eda4sat.Pipeline.result, rep.Eda4sat.Pipeline.solver_stats, None,
   None)

(* Race [lanes] diversified strategies on the worker's pool (a
   dispatch decision in Direct mode, or Portfolio mode racing the full
   pool).  No warm seeding or snapshot capture — lanes run diversified
   configurations the snapshot contract does not cover. *)
let race_leg ?share_lbd (job : job) limits ~lanes ~pool =
  let strategies = Portfolio.Strategy.default_pool ~jobs:lanes in
  let f = Cnf.Flat.to_formula job.cnf in
  let o =
    match pool with
    | Some p ->
      Portfolio.Runner.run_in ?share_lbd ~limits ~interrupt:job.interrupt
        p strategies f
    | None ->
      Portfolio.Runner.run ?share_lbd ~jobs:lanes ~limits
        ~interrupt:job.interrupt strategies f
  in
  (o.Portfolio.Runner.result, o.Portfolio.Runner.stats, None, None)

(* Per-job cube config under a dispatch decision: the decision's
   trigger overrides the static one, inheriting the remaining knobs. *)
let decided_cube t (d : Dispatch.Policy.decision) =
  match d.Dispatch.Policy.cube_trigger with
  | None -> t.cfg.cube
  | Some trig ->
    let base = Option.value t.cfg.cube ~default:default_cube_config in
    Some { base with cube_trigger = trig }

let solve_job t pool job =
  let limits = { t.cfg.limits with Sat.Solver.deadline = job.deadline } in
  match t.cfg.mode with
  | Direct -> (
    match job.decision with
    | Some d when d.Dispatch.Policy.lanes > 1 ->
      race_leg job limits ~lanes:d.Dispatch.Policy.lanes ~pool
    | Some d when d.Dispatch.Policy.simplify -> simplify_leg job limits
    | Some d -> direct_leg t pool job limits ~cube:(decided_cube t d)
    | None -> direct_leg t pool job limits ~cube:t.cfg.cube)
  | Simplify -> simplify_leg job limits
  | Portfolio { share_lbd; _ } ->
    let lanes = Portfolio.Runner.pool_size (Option.get pool) in
    race_leg ~share_lbd job limits ~lanes ~pool

let classify t job result stats solve_wall snapshot ~cube =
  let verdict =
    match result with
    | Sat.Solver.Sat m ->
      (* Normalize the model to exactly [num_vars] entries first —
         reconstruction paths (Simplify, Portfolio) may answer with
         auxiliary variables appended, and [Flat.eval] raises on a
         size mismatch.  Then never serve an unverified model: the
         check is linear in the formula and turns any would-be wrong
         answer (a solver bug, a lane mix-up, a corrupt warm seed)
         into an explicit failure. *)
      let nv = job.cnf.Cnf.Flat.num_vars in
      let m =
        if Array.length m = nv then m
        else Array.init nv (fun i -> i < Array.length m && m.(i))
      in
      if Cnf.Flat.eval job.cnf m then Sat m
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
             && not (job.timed_out || deadline_passed job (Sat.Wall.now ()))
        ->
        (* A cube race that died mid-way resolves FAILED, not a
           resource answer — and certainly not UNSAT. *)
        Failed
          (Printf.sprintf "cube job failed: %s"
             (Option.value ~default:"?" rep.Portfolio.Cuber.failure))
      | _ ->
        if job.timed_out || deadline_passed job (Sat.Wall.now ()) then
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
  let was_live = Hashtbl.mem t.sessions sid in
  if was_live then begin
    Hashtbl.remove t.sessions sid;
    Hashtbl.replace t.retired sid `Closed
  end;
  Mutex.unlock t.gm;
  if was_live then Metrics.add t.metrics Sessions_closed

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
  let pool =
    match t.cfg.mode with
    | Portfolio { jobs; _ } -> Some (Portfolio.Runner.create_pool ~jobs ())
    | Direct ->
      (* The worker's auxiliary pool: idle until a job crosses the
         cube hardness trigger or a dispatch decision races lanes, so
         small-job throughput is untouched.  Sized for the larger of
         the two consumers. *)
      let cube_jobs =
        match t.cfg.cube with Some cc -> cc.cube_jobs | None -> 1
      in
      let lane_jobs =
        match t.cfg.dispatch with
        | Some { policy = Some _; _ } -> Dispatch.Policy.max_lanes
        | _ -> 1
      in
      let jobs = max cube_jobs lane_jobs in
      if jobs > 1 then Some (Portfolio.Runner.create_pool ~jobs ())
      else None
    | Simplify -> None
  in
  let rec loop () =
    match Job_queue.pop t.queue with
    | None -> ()
    | Some (W_session s) ->
      run_session_token t s;
      loop ()
    | Some (W_job job) ->
      Mutex.lock job.jm;
      let already_done = job.claimed in
      if not already_done then job.running <- true;
      Mutex.unlock job.jm;
      (if already_done then () (* e.g. timed out while queued *)
       else if Atomic.get t.stopping then
         finalize t job ~verdict:(Failed "server shutdown")
           ~stats:empty_stats ~solve_wall:0.0 ()
       else if deadline_passed job (Sat.Wall.now ()) then
         finalize t job ~verdict:Timeout ~stats:empty_stats ~solve_wall:0.0
           ()
       else begin
         let t0 = Sat.Wall.now () in
         match solve_job t pool job with
         | result, stats, snapshot, cube ->
           classify t job result stats (Sat.Wall.now () -. t0) snapshot ~cube
         | exception e ->
           finalize t job
             ~verdict:(Failed (Printexc.to_string e))
             ~stats:empty_stats
             ~solve_wall:(Sat.Wall.now () -. t0)
             ()
       end);
      loop ()
  in
  loop ();
  Option.iter Portfolio.Runner.shutdown_pool pool

(* Idle-TTL sweep: evict sessions idle past the configured TTL.
   Re-checked under [gm] so a session that just accepted an op is
   spared; the [Session.evict] call itself runs outside [gm] (lock
   order is gm before the session mutex, and evict takes the latter). *)
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
          Hashtbl.replace t.retired sid `Evicted)
        es;
      Mutex.unlock t.gm;
      es
    in
    List.iter
      (fun (_, s) ->
        Session.evict s;
        Metrics.add t.metrics Sessions_evicted)
      expired

(* The deadline monitor: a few-millisecond heartbeat that scans the
   in-flight table and the session table.  A queued job whose deadline
   passed resolves to [Timeout] immediately (it never waits for a
   worker); a running one — one-shot or mid-session — gets its
   interrupt set and resolves within one solver budget tick. *)
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
        if deadline_passed job now then begin
          Mutex.lock job.jm;
          let queued = (not job.claimed) && not job.running in
          Mutex.unlock job.jm;
          if queued then
            finalize t job ~verdict:Timeout ~stats:empty_stats
              ~solve_wall:0.0 ()
          else begin
            job.timed_out <- true;
            Sat.Solver.Interrupt.set job.interrupt
          end
        end)
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
  (* A policy only routes Direct-mode jobs (the other modes are a
     fixed leg already); a trace may be attached to any mode. *)
  (match config.dispatch with
   | Some { policy = Some _; _ } when config.mode <> Direct ->
     invalid_arg "Engine.create: dispatch policy requires Direct mode"
   | _ -> ());
  let t =
    {
      cfg = config;
      queue = Job_queue.create ~capacity:config.queue_capacity ();
      cache = Cache.create ~capacity:config.cache_capacity ();
      warm =
        (if config.warm_capacity > 0 && config.mode = Direct then
           Some (Cache.Warm.create ~capacity:config.warm_capacity ())
         else None);
      metrics = Metrics.create ();
      inflight = Fp_tbl.create 64;
      sessions = Hashtbl.create 64;
      retired = Hashtbl.create 64;
      gm = Mutex.create ();
      stopping = Atomic.make false;
      monitor_stop = Atomic.make false;
      next_id = 0;
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

(* Learned dispatch: features and the model's decision are computed
   after the cache lookup (a hit never needs them) and outside every
   engine lock — O(|F|) work must not serialize concurrent submits.
   Every decision lands on exactly one leg counter here at submit
   time, so [dispatch_decided = direct + simplify + raced + rejected]
   holds whatever later happens to the job (dedup join, queue-full
   bounce, shutdown drain).

   Deadline-aware admission refuses a job whose predicted latency
   exceeds [admission_margin] times its (explicit or default) deadline
   — it would only burn a queue slot on the way to [Timeout].
   Conservative by construction: an untrained hardness head predicts
   [nan], which never rejects. *)
let decide t ?deadline cnf =
  match t.cfg.dispatch with
  | None -> Ok (None, None)
  | Some dc -> (
    let t0 = Sat.Wall.now () in
    let features = Dispatch.Features.of_flat cnf in
    match dc.policy with
    | None -> Ok (Some features, None)
    | Some p ->
      let d = Dispatch.Policy.decide p features in
      Metrics.observe t.metrics Inference (Sat.Wall.now () -. t0);
      let deadline =
        match deadline with None -> t.cfg.default_deadline | dl -> dl
      in
      let hopeless =
        match deadline with
        | Some dl when dc.admission ->
          Float.is_finite d.predicted_ms
          && d.predicted_ms > admission_margin *. dl *. 1000.0
        | _ -> false
      in
      Metrics.add t.metrics
        (if hopeless then Dispatch_rejected
         else if d.lanes > 1 then Dispatch_raced
         else if d.simplify then Dispatch_simplify
         else Dispatch_direct);
      if hopeless then reject t "predicted-timeout"
      else Ok (Some features, Some d))

(* Join the in-flight job for [fp], or queue a new one. *)
let enqueue t ~now ?deadline ~priority cnf fp (features, decision) =
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
      Ok (T_job { job; source = Dedup_join; t_submit = now })
    | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
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
          id;
          cnf;
          fp;
          warm;
          features;
          decision;
          deadline =
            (match deadline with
             | Some s -> Some (now +. s)
             | None -> Option.map (fun s -> now +. s) t.cfg.default_deadline);
          submitted_at = now;
          interrupt = Sat.Solver.Interrupt.create ();
          jm = Mutex.create ();
          jc = Condition.create ();
          state = None;
          claimed = false;
          running = false;
          timed_out = false;
          join_subs = [];
          waiters = [];
        }
      in
      (* In-flight before enqueue, so a concurrent identical submit
         joins this job even while it is still queued. *)
      Fp_tbl.replace t.inflight fp job;
      if Job_queue.push t.queue ~priority (W_job job) then begin
        Mutex.unlock t.gm;
        (* A warm-started submit counts as [warm_hits], not
           [submitted] — the two are disjoint legs of the request
           reconciliation. *)
        Metrics.add t.metrics
          (match job.warm with Some _ -> Warm_hits | None -> Submitted);
        Ok (T_job { job; source = Solved; t_submit = now })
      end
      else begin
        Fp_tbl.remove t.inflight fp;
        Mutex.unlock t.gm;
        reject t
          (Printf.sprintf "queue full (capacity %d)"
             (Job_queue.capacity t.queue))
      end

(* The submit path: lookup → decide → enqueue. *)
let submit_live t ?deadline ~priority cnf =
  let now = Sat.Wall.now () in
  let fp = Cnf.Fingerprint.of_flat cnf in
  match lookup t fp cnf with
  | Some (verdict, e) ->
    let wall = Sat.Wall.now () -. now in
    Metrics.add t.metrics Cache_hits;
    Metrics.observe t.metrics Latency wall;
    Ok
      (T_ready
         {
           verdict;
           source = Cache_hit;
           wall;
           solve_wall = e.Cache.solve_wall;
           stats = e.Cache.stats;
           fingerprint = fp;
         })
  | None ->
    Result.bind (decide t ?deadline cnf)
      (enqueue t ~now ?deadline ~priority cnf fp)

(* The stopping check comes before the cache lookup: a shut-down
   server rejects every submit, even one it could answer from memory
   — [shutdown] means "this instance no longer answers". *)
let submit t ?deadline ?(priority = 0) cnf =
  if Atomic.get t.stopping then reject t "server shutting down"
  else if not (valid_deadline deadline) then reject t "bad-deadline"
  else submit_live t ?deadline ~priority cnf

(* Drop a fingerprint's {e verdict} while keeping its warm snapshot —
   the next identical submit re-solves, seeded.  This is the knob the
   warm-start bench turns to measure resume-vs-restart without the
   verdict cache short-circuiting the resubmit; it is also useful when
   a client wants a fresh model for a formula it already solved. *)
let forget_verdict t fp = Cache.remove t.cache fp

let answer_of_core job core ~source ~t_submit =
  {
    verdict = core.d_verdict;
    source;
    wall = core.d_done_at -. t_submit;
    solve_wall = core.d_solve_wall;
    stats = core.d_stats;
    fingerprint = job.fp;
  }

let await _t = function
  | T_ready a -> a
  | T_job { job; source; t_submit } ->
    Mutex.lock job.jm;
    while job.state = None do
      Condition.wait job.jc job.jm
    done;
    let core = Option.get job.state in
    Mutex.unlock job.jm;
    answer_of_core job core ~source ~t_submit

let poll _t = function
  | T_ready a -> Some a
  | T_job { job; source; t_submit } ->
    Mutex.lock job.jm;
    let core = job.state in
    Mutex.unlock job.jm;
    Option.map (fun c -> answer_of_core job c ~source ~t_submit) core

let on_answer _t ticket k =
  match ticket with
  | T_ready a -> k a
  | T_job { job; source; t_submit } ->
    Mutex.lock job.jm;
    (match job.state with
     | Some core ->
       Mutex.unlock job.jm;
       k (answer_of_core job core ~source ~t_submit)
     | None ->
       job.waiters <-
         (fun core -> k (answer_of_core job core ~source ~t_submit))
         :: job.waiters;
       Mutex.unlock job.jm)

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
        Some sid
      end
    in
    Mutex.unlock t.gm;
    (match victim with
     | Some vs ->
       Session.evict vs;
       Metrics.add t.metrics Sessions_evicted
     | None -> ());
    match opened with
    | Some sid ->
      Metrics.add t.metrics Sessions_opened;
      Ok sid
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

let session_await _t ticket = Session.await ticket
let session_poll _t ticket = Session.poll ticket

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

let stats t =
  let inflight, live =
    Mutex.lock t.gm;
    let n = Fp_tbl.length t.inflight in
    let l = Hashtbl.length t.sessions in
    Mutex.unlock t.gm;
    (n, l)
  in
  Metrics.snapshot t.metrics
    ~sampled:
      [
        (Queue_depth, Job_queue.length t.queue);
        (Inflight, inflight);
        (Cache_entries, Cache.length t.cache);
        (Sessions_live, live);
      ]

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
    List.iter (fun job -> Sat.Solver.Interrupt.set job.interrupt) jobs;
    List.iter (fun s -> Session.kill s "server shutdown") sessions;
    Job_queue.close t.queue;
    let domains = t.domains in
    t.domains <- [];
    Atomic.set t.monitor_stop true;
    List.iter Domain.join domains
  end
