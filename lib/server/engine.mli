(** The concurrent solve service: bounded priority queue, persistent
    domain workers, fingerprint result cache, in-flight deduplication
    and per-job deadlines.

    {2 Life of a request}

    A request is a flat CSR clause store ({!Cnf.Flat.t}) — the shape
    the zero-copy DIMACS parser ({!Cnf.Dimacs.read_flat_file}) emits
    and the solver loads ({!Sat.Solver.solve_flat}).  Callers holding
    a {!Cnf.Formula.t} convert it once with {!Cnf.Flat.of_formula}.
    [submit] fingerprints the store ({!Cnf.Fingerprint.of_flat}) and
    then:

    + {b cache hit} — an earlier decisive answer for the same
      canonical formula exists: the cached model is re-verified
      against the submitted formula ([Cnf.Flat.eval], so a
      fingerprint collision is detected, never served) and the ticket
      is already resolved;
    + {b dedup join} — a job with the same fingerprint is queued or
      running: the ticket attaches to that job's future, no new work
      is created;
    + {b admission} — otherwise the request becomes a job in the
      bounded priority queue.  A full queue {e rejects} the request
      with a reason (backpressure at the edge);
    + a persistent pool of worker domains pops jobs (highest priority
      first) and solves each with {!Sat.Solver.solve_flat} straight
      from the submitted store, escalating to cube-and-conquer when
      {!cube_config} is set;
    + the job's {b deadline} is enforced twice: as an absolute
      {!Sat.Solver.limits.deadline} probed on the solver's budget
      tick, and by a monitor domain that sets the flag of the job's
      stop scope ({!Aig.Interrupt}, its cubes included) and fails a
      still-queued one the moment its deadline passes — a deadline
      answers [Timeout], never a hang;
    + decisive answers (a verified model, or [Unsat]) enter the LRU
      cache; [await] wakes every ticket attached to the job.

    {2 Warm starts}

    The engine also keeps a bounded LRU of
    {!Sat.Solver.seed} snapshots ({!Cache.Warm}), keyed by the same
    canonical fingerprint as the verdict cache.  Only a job that stops
    undecided ([Timeout]: its deadline or a configured limit) leaves
    one: its low-LBD learnt clauses, saved phases and activity order.
    A later submit of the same canonical formula {e resumes} from the
    snapshot instead of restarting ([warm_hits] in {!Metrics}), and
    repeated slices accumulate progress.  A decided job leaves nothing
    and drops any snapshot its fingerprint held, since its verdict
    answers first; a [Failed] job drops it too, so a failure never
    seeds the next attempt.  Soundness is by construction: equal fingerprints
    mean equal model sets, so the snapshot's learnt clauses are
    implied by the resubmitted formula; and a warm answer is never
    trusted blind — models are re-verified and UNSAT proofs (when
    requested via the direct pipeline) remain checkable because the
    seeding path RUP-filters the injected clauses.

    {2 Incremental sessions}

    [open_session] allocates a persistent {!Session.t} wrapping one
    {!Sat.Solver.Incremental.session}.  Session operations
    ([session_add] / [session_assume] / [session_push] /
    [session_pop] / [solve_session] / [close_session]) queue on the
    session's private FIFO and execute {e in submission order} on the
    same worker pool as one-shot jobs, one op per scheduling token —
    so sessions round-robin with each other and with one-shot solves
    instead of monopolizing a worker.  The session table is bounded
    ([session_capacity]): opening past the bound evicts the
    least-recently-used {e idle} session (its pending ops answer
    [Evicted]); if every session is busy the open is rejected.
    Sessions idle past [session_ttl] are evicted by the monitor
    domain, which also interrupts session solves that run past their
    deadline.  Operations addressed to a closed or evicted session id
    answer [Failed "session closed"] / [Evicted] rather than erroring.

    All entry points may be called from any domain. *)

type verdict =
  | Sat of bool array
      (** a model over the submitted formula's variables, verified
          with [Cnf.Flat.eval] before being reported — including
          when it came from the cache *)
  | Unsat
  | Timeout  (** deadline or configured resource limit hit *)
  | Failed of string
      (** the solve raised, the server was shut down mid-job, or a
          model failed verification *)

type source =
  | Solved      (** a fresh solve ran for this request *)
  | Cache_hit   (** answered at submit time from the result cache *)
  | Dedup_join  (** attached to a concurrently in-flight identical job *)

type answer = {
  verdict : verdict;
  source : source;
  wall : float;
      (** this request's latency, submit to answer, in seconds *)
  solve_wall : float;
      (** wall seconds of the underlying solve (the {e original} cold
          solve for cache hits — compare with [wall] for the saving) *)
  stats : Sat.Solver.stats;  (** the underlying solve's statistics *)
  fingerprint : Cnf.Fingerprint.t;
}

(** Hardness-triggered cube-and-conquer.  A job whose first solve
    slice hits [cube_trigger] conflicts without an answer escalates to
    {!Portfolio.Cuber}: the formula is split into up to [cube_count]
    cubes by propagation lookahead
    ([cube_probe_limit] probes per split node) and conquered with work
    stealing by [cube_jobs] bodies: the worker itself plus
    [cube_jobs - 1] domains spawned for that job and joined before it
    answers.  No domain is kept for cubing between jobs.  Small jobs answer inside the slice and take exactly the
    path they would without cubing.

    Soundness guards on the escalated path (see DESIGN.md):
    an [Unsat] is published — and verdict-cached — only when the
    conquest refuted {e every} cube; a cube race that dies mid-way
    resolves [Failed], never [Unsat]; and an escalated job stores no
    warm snapshot (cube solves bake assumption-local phases and
    activity into their state). *)
type cube_config = {
  cube_trigger : int;     (** conflicts before a job escalates *)
  cube_count : int;       (** max cubes per escalated job *)
  cube_jobs : int;        (** conquest bodies, the worker included *)
  cube_probe_limit : int; (** lookahead probes per split node *)
}

val default_cube_config : cube_config
(** [{ cube_trigger = 10_000; cube_count = 8; cube_jobs = 4;
      cube_probe_limit = 32 }] *)

type config = {
  workers : int;         (** worker domains (default 4) *)
  queue_capacity : int;  (** admission bound (default 64) *)
  cache_capacity : int;  (** LRU entries (default 512) *)
  warm_capacity : int;
      (** warm-start snapshot LRU entries (default 256); [0] disables
          warm starts *)
  limits : Sat.Solver.limits;
      (** base per-job limits (the job deadline is layered on top) *)
  default_deadline : float option;
      (** seconds; applied when [submit] gives no deadline *)
  session_capacity : int;
      (** max live sessions (default 64); opening past the bound
          LRU-evicts an idle session or rejects *)
  session_ttl : float option;
      (** idle seconds before the monitor evicts a session
          (default 600); [None] disables TTL eviction *)
  cube : cube_config option;
      (** hardness-triggered cube-and-conquer (default [None]:
          disabled) *)
}

val default_config : config

type t
type ticket

val create : ?config:config -> unit -> t
(** Start the service: spawns the worker domains and the deadline
    monitor. *)

val submit :
  t -> ?deadline:float -> ?priority:int -> Cnf.Flat.t ->
  (ticket, string) result
(** Submit a formula.  [deadline] is in seconds from now — a negative
    or non-finite value answers [Error "bad-deadline"] (a NaN deadline
    would otherwise compose into an absolute instant that never
    passes, i.e. an unkillable job); [priority] (default 0, higher
    pops first) orders the admission queue.  [Error reason] is the
    backpressure path: the queue is full or the server is shutting
    down — nothing was enqueued. *)

val await : t -> ticket -> answer
(** Block until the ticket's job resolves.  Any number of domains may
    await (the same or different) tickets concurrently. *)

val poll : t -> ticket -> answer option
(** Non-blocking [await]. *)

val on_answer : t -> ticket -> (answer -> unit) -> unit
(** Asynchronous [await]: run the callback once, when (or if already)
    the ticket's job resolves, under the completion contract of
    {!Sat.Ivar.upon}.  The resolving domain is a worker or the
    deadline monitor; it holds no engine lock while the callback runs,
    so the callback may re-enter the engine.  This is the completion
    hook the network front-end ({!Net.Event_loop}) uses to stream
    answers back without parking a domain per request. *)

val solve :
  t -> ?deadline:float -> ?priority:int -> Cnf.Flat.t ->
  (answer, string) result
(** [submit] then [await]. *)

val forget_verdict : t -> Cnf.Fingerprint.t -> unit
(** Drop the fingerprint's verdict-cache entry (if any): the next
    identical submit re-solves fresh, since a decided formula leaves
    no warm snapshot.  For clients that want a fresh solve of a known
    formula.  A timed-out formula has no verdict to drop, and its
    snapshot stays. *)

(** {2 Session API} *)

val open_session : t -> (int, string) result
(** Allocate a fresh live session and answer its id.  [Error] when
    the table is at capacity with no idle session to LRU-evict, or the
    server is shutting down. *)

val session_submit : t -> int -> Session.op -> (Session.ticket, string) result
(** Queue one operation on a session's FIFO.  For a retired
    (closed/evicted) id the ticket comes back already resolved with
    the lifecycle outcome.  [Error] on an unknown id, a full session
    FIFO, or a shutting-down server.  A [Session.Solve] op's deadline
    must already be an absolute instant — prefer [solve_session],
    which validates and composes it. *)

val session_add :
  t -> int -> int array list -> (Session.answer, string) result
(** Append clauses (client DIMACS literals).  Under a pushed frame the
    clauses retire with the frame's [session_pop]. *)

val session_assume : t -> int -> int array -> (Session.answer, string) result
(** Set the assumption literals for the next [solve_session] on this
    session (IPASIR convention: cleared once that solve answers). *)

val session_push : t -> int -> (Session.answer, string) result
val session_pop : t -> int -> (Session.answer, string) result

val submit_session_solve :
  t -> ?deadline:float -> int -> (Session.ticket, string) result
(** Non-blocking [solve_session]: validates [deadline] (seconds from
    now, [Error "bad-deadline"] like {!submit}), composes the absolute
    instant and queues the [Solve] op. *)

val solve_session :
  t -> ?deadline:float -> int -> (Session.answer, string) result
(** Solve the session's accumulated clauses under the pending
    assumptions (set them first with {!session_assume}, as the wire's
    [ASSUME] precedes its [SOLVE]).  [deadline] is in seconds from
    now, validated like {!submit} ([Error "bad-deadline"]).  Blocks
    until the solve answers; earlier queued ops of the same session
    run first (FIFO). *)

val close_session : t -> int -> (Session.answer, string) result
(** Mark the session closed and retire it once its FIFO drains.
    Later ops on the id answer [Failed "session closed"]. *)

val sessions_live : t -> int

val stats : t -> Metrics.snapshot
val stats_json : t -> string

val metrics : t -> Metrics.t
(** The engine's live metrics accumulator.  Exposed so transport
    front-ends (the socket server) can record per-client counters into
    the same snapshot that [stats]/[stats_json] serve — one source of
    truth for reconciliation. *)

val shutdown : t -> unit
(** Stop accepting work, cancel running jobs (their awaiters receive
    [Failed "server shutdown"] — or their real answer if it won the
    race with the cancellation), fail the still-queued jobs, join
    every domain.  Idempotent; [submit] afterwards answers [Error]. *)
