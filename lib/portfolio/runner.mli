(** Domain-based portfolio racing with first-wins cancellation.

    [run] races one worker domain per strategy.  Each worker builds
    its lane's CNF ([Strategy.prepare], or the input formula), then
    drives {!Sat.Solver.solve_flat} with a {!Sat.Solver.config} of the
    lane's heuristic and restart schedule and — within its
    clause-sharing group — export/import hooks over a {!Clause_bus},
    under a shared {!Sat.Solver.Interrupt} flag.
    The first worker to answer [Sat]/[Unsat] wins the race atomically
    and interrupts every other worker; losers stop within one budget
    tick of their solver.  A worker that raises is logged and treated
    as a lost lane — the race keeps going (robustness, not a crash).
    All domains are joined before [run] returns: no worker outlives
    the call.

    {2 Proofs}

    With [?proof], the direct lanes (share group 0) append their
    learned clauses into one shared, deletion-free, mutex-guarded DRAT
    recorder ({!Sat.Proof}); clauses imported over the bus are already
    present in it, logged by their exporter, so the merged log is
    RUP-checkable against the input formula.  When the race answers
    [Unsat] {e and} the refutation was derived by a direct lane (the
    shared recorder is sealed by its empty clause), the log is
    replayed into the caller's [proof].  If a preprocessing lane wins
    [Unsat], its refutation concerns a transformed CNF and no DRAT
    trace for the input formula exists — the caller's recorder is left
    open (and unsealed), which the caller can observe via
    {!Sat.Proof.sealed}.

    {2 Sequential fallback}

    [~jobs:1] runs a deterministic sequential race: no domains, no
    sharing, no interrupts — strategies run one after the other, each
    under the full [limits], until one answers.  With the default pool
    this makes the first lane bit-identical to {!Sat.Solver.solve}
    (same decisions, conflicts, proof log and model). *)

type worker_outcome =
  | Answered of Sat.Solver.result * Sat.Solver.stats
      (** reached its own decisive answer (the winner, or a worker
          that crossed the line just after the winner) *)
  | Cancelled
      (** interrupted — or, sequentially, never started — because the
          race was already decided *)
  | Limit of Sat.Solver.stats
      (** hit [limits] on its own: a genuine [Unknown] *)
  | Failed of string  (** raised; the message is [Printexc.to_string] *)

type worker_report = {
  strategy : Strategy.t;
  outcome : worker_outcome;
}

type outcome = {
  result : Sat.Solver.result;
      (** the winner's answer; [Unknown] when every lane was a limit
          or a failure.  A [Sat] model from a prepared lane satisfies
          that lane's CNF (equisatisfiable with the input), not
          necessarily the input formula — check [winner]. *)
  winner : int option;  (** index into [workers] *)
  stats : Sat.Solver.stats;
      (** the winner's; zeros when no winner.  In a parallel race the
          [cpu_time] field is the {e race-level} process-CPU delta
          (every per-lane reading would over-attribute the other
          domains' concurrent work, so the losing lanes' [cpu_time] is
          zeroed instead — see {!Sat.Solver.stats.cpu_time}). *)
  wall : float;  (** wall-clock seconds for the whole race *)
  workers : worker_report array;  (** one per strategy, in order *)
  shared_published : int;
  shared_delivered : int;
  shared_dropped : int;
}

val run :
  ?jobs:int ->
  ?share_lbd:int ->
  ?limits:Sat.Solver.limits ->
  ?proof:Sat.Proof.t ->
  ?log:(string -> unit) ->
  Strategy.t list ->
  Cnf.Formula.t ->
  outcome
(** Race the strategies on a formula.  [jobs] (default 4) caps the
    number of worker domains: with [jobs = 1] the race is sequential
    (see above); otherwise the first [jobs] strategies race in
    parallel on a transient {!pool} that lives exactly as long as the
    race.  A [limits.interrupt] flag is the parallel race's cancel
    flag: setting it stops every lane, and the race sets it once
    decided.  Without one the race creates its own.  [share_lbd]
    (default 4) is the maximum glue value a learned clause may have to
    be exported to the lane's share group; [0] disables sharing.
    [log] receives human-readable race events (serialized — safe to
    print). *)

(** {2 Reusable worker pools}

    A {!pool} is a persistent set of worker domains that many cube
    conquests dispatch onto ({!Cuber.solve_in}), amortizing domain
    spawn/teardown — the regime a long-lived solve service runs in.
    A parallel [run] races on a transient pool of its own. *)

type pool

val create_pool : jobs:int -> unit -> pool
(** Spawn [max 1 jobs] persistent worker domains, idle until a race
    dispatches onto them. *)

val pool_size : pool -> int

val dispatch : pool -> (unit -> unit) array -> unit
(** Submit every thunk onto the pool and block until all of them have
    run — the cube scheduler's fan-out/join primitive.  A thunk's
    exception is swallowed (each thunk records its own outcome), so
    [dispatch] always returns.  Concurrent dispatches on one pool are
    safe but share workers.
    @raise Invalid_argument after {!shutdown_pool}. *)

val shutdown_pool : pool -> unit
(** Drain nothing, wake every idle worker and join the domains.
    Outstanding dispatches must have returned; idempotent otherwise. *)
