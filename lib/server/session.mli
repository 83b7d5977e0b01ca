(** One persistent incremental solve session of the service.

    A session wraps a {!Sat.Solver.Incremental.session} plus the
    bookkeeping that makes it safe to drive over the shared worker
    pool: a FIFO of pending operations, a checkout flag so at most one
    worker domain touches the solver at a time, a client-variable
    renaming (client variables map to internal solver variables in
    first-use order, so activation variables never collide with later
    client variables), and a PUSH/POP stack implemented with
    activation literals — every clause added under a pushed frame
    carries the negation of the frame's activation variable, the
    frame's activation variable is assumed at solve time, and POP
    retires the frame by adding the negated activation unit.

    Scheduling contract (enforced together with {!Engine}): a session
    appears {e at most once} in the engine's work queue, as a token
    that makes a worker execute exactly one pending operation
    ({!run_one}) before the token is re-enqueued — so a chatty session
    round-robins with one-shot jobs and with other sessions instead of
    starving them.  Operations of one session execute in submission
    order; {!enqueue} tells the caller whether it just became
    responsible for scheduling the token.

    All functions may be called from any domain. *)

type op =
  | Add of int array list
      (** clauses in the client's DIMACS literals; rejected
          ([Failed]) if any literal is 0 *)
  | Assume of int array
      (** assumption literals for the {e next} [Solve]; cleared after
          it answers (IPASIR convention).  A second [Assume] before the
          solve replaces the first. *)
  | Push  (** open an activation frame *)
  | Pop   (** retire the innermost frame and its clauses *)
  | Solve of { deadline : float option }
      (** absolute {!Sat.Wall.now} instant, already validated and
          composed by the engine *)
  | Close  (** mark the session closed; later ops answer [Failed] *)

type outcome =
  | Ok_done            (** [Add]/[Assume]/[Push]/[Pop]/[Close] applied *)
  | Sat of bool array  (** model over the client's variables, verified
                           against every live client clause *)
  | Unsat of int array
      (** failed-assumption core in client literals (activation
          literals are filtered out); empty when the accumulated
          clauses are unsatisfiable outright *)
  | Timeout            (** deadline or configured resource limit *)
  | Evicted            (** the session was evicted before the op ran *)
  | Failed of string

type answer = {
  outcome : outcome;
  wall : float;        (** op latency, submit to answer, seconds *)
  solve_wall : float;  (** wall seconds of the underlying solve; 0 for
                           non-solve ops *)
  stats : Sat.Solver.stats;
      (** cumulative session solver statistics (solve answers only) *)
}

type ticket
type t

val create : ?max_pending:int -> id:int -> unit -> t
(** A fresh live session.  [max_pending] (default 1024) bounds the
    per-session op FIFO — the session-level backpressure edge. *)

val id : t -> int

val enqueue : t -> op -> [ `Scheduled of ticket | `Queued of ticket | `Full ]
(** Append an op to the session's FIFO.  [`Scheduled] means the caller
    must push the session's token onto the work queue (the FIFO was
    empty and no token is in flight); [`Queued] means a token already
    exists and will drain this op too.  On a closed or evicted session
    the ticket comes back already resolved ([Failed] / [Evicted]).
    [`Full] is the per-session backpressure answer: nothing was
    enqueued. *)

val await : ticket -> answer
val poll : ticket -> answer option

val on_answer : ticket -> (answer -> unit) -> unit
(** Asynchronous [await]: run the callback once, when (or if already)
    the ticket resolves, under the completion contract of
    {!Sat.Ivar.upon}.  The resolving domain — the worker that runs the
    op, or whichever domain evicts the session or shuts the server
    down — holds no session or engine lock while the callback runs. *)

val resolved_ticket : op -> outcome -> ticket
(** A ticket already carrying [outcome] — the engine's deterministic
    answer for ops addressed to a retired (closed/evicted) session
    id. *)

type step = {
  executed : (op * answer) option;
      (** the op this call ran and how it answered (for metrics);
          [None] when the call popped no op, or answered it without
          running it because the session was closed or evicted or the
          server is stopping *)
  next : [ `More | `Idle | `Closed ];
      (** [`More]: re-enqueue the token; [`Idle]: the FIFO drained;
          [`Closed]: the FIFO drained and the session closed itself —
          the engine should retire it *)
}

val run_one :
  limits:Sat.Solver.limits -> stopping:(unit -> bool) -> t -> step
(** Execute at most one pending op (worker-domain entry point).  The
    checkout flag guarantees exclusive access to the solver state; the
    token discipline guarantees a single caller.  [limits] is the
    engine's base per-op limit record; a [Solve] op's deadline is
    layered on top, and the solve runs inside {!Aig.Interrupt.within}
    a flag of its own, which {!kill} and {!interrupt_if_overdue} set.
    [stopping] is probed before running an op — a stopping server
    answers [Failed "server shutdown"] without solving. *)

val evict : t -> unit
(** Mark the session evicted and resolve every pending op with
    [Evicted].  Only idle sessions are evicted by the engine, but the
    call is safe at any time. *)

val kill : t -> string -> unit
(** Shutdown path: resolve every pending op with [Failed msg] and
    interrupt a running solve. *)

val interrupt_if_overdue : t -> now:float -> unit
(** Monitor hook: if a solve is running past its deadline, set its
    flag. *)

val is_idle : t -> bool
(** No pending ops and not checked out — the only state eligible for
    eviction. *)

val last_use : t -> float
(** {!Sat.Wall.now} instant of the last submitted or completed op. *)

val depth : t -> int
(** Current PUSH nesting depth. *)

val pending_ops : t -> int
