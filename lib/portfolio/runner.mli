(** Domain-based portfolio racing with first-wins cancellation, and the
    one work loop ({!spread}) that races and cube conquests run on.

    [run] races the strategies on [min jobs lanes] workers.  Each
    worker claims lanes in list order; a lane builds its CNF
    ([Strategy.prepare], or the input store), then drives
    {!Sat.Solver.solve_flat} with a {!Sat.Solver.config} of the lane's
    heuristic and restart schedule, all inside {!Aig.Interrupt.within}
    one cancel flag.  With more than one worker, the lanes
    without a [prepare] step also exchange learned clauses over a
    {!Clause_bus}.

    {2 The one race rule}

    The first lane to answer [Sat]/[Unsat] wins the race atomically
    and sets the cancel flag; losers stop within one budget tick of
    their solver, and any lane claimed after that answers [Cancelled].
    A lane still preparing stops at its next poll (one clause, node or
    LUT of the transformation) with [Cancelled].
    With one worker this runs the lanes in order until one answers
    (no domains, no sharing), which makes the anchor lane of
    [Strategy.default_pool ~jobs:1] (EVSIDS with Glucose restarts,
    the solver's default) bit-identical to {!Sat.Solver.solve} (same
    decisions, conflicts, restarts, proof log and model).  A lane that
    raises is logged and treated as a lost lane — the race keeps going
    (robustness, not a crash).  All domains are
    joined before [run] returns: no worker outlives the call.

    {2 Proofs}

    With [?proof] and one worker, the lanes without a [prepare] step
    log straight into the caller's recorder.  With more workers they
    append their learned clauses into one shared, deletion-free,
    mutex-guarded DRAT recorder ({!Sat.Proof}); clauses imported over
    the bus are already present in it, logged by their exporter, so
    the merged log is RUP-checkable against the input formula.  When
    the refutation was derived by such a lane (the shared recorder is
    sealed by its empty clause), the log is replayed into the caller's
    [proof].  If a preprocessing lane wins [Unsat], its refutation
    concerns a transformed CNF and no DRAT trace for the input formula
    exists — the caller's recorder is left unsealed, which the caller
    can observe via {!Sat.Proof.sealed}. *)

type worker_outcome =
  | Answered of Sat.Solver.result * Sat.Solver.stats
      (** reached its own decisive answer (the winner, or a worker
          that crossed the line just after the winner) *)
  | Cancelled
      (** interrupted — or never started — because the race was
          already decided *)
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
      (** the winner's; zeros when no winner.  The [cpu_time] field is
          the {e race-level} process-CPU delta (a per-lane reading
          would over-attribute the other domains' concurrent work), so
          the other lanes' [cpu_time] is zeroed — see
          {!Sat.Solver.stats.cpu_time}. *)
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
  Cnf.Flat.t ->
  outcome
(** Race the strategies on a store.  [jobs] (default 4) caps the
    number of workers at [min jobs (List.length strategies)]; more
    than one race on {!spread}: the caller plus domains spawned for
    the race and joined before it returns.  The flag of the caller's
    stop scope ({!Aig.Interrupt.current}) is the race's cancel flag:
    setting it stops every lane, and the race sets it once decided.
    Outside a scope the race creates its own.
    [share_lbd] (default 4) is the maximum glue value a learned clause
    may have to be exported; [0] disables sharing.  [log] receives
    human-readable race events (serialized — safe to print).
    @raise Invalid_argument on an empty strategy list. *)

(** {2 The work loop} *)

val spread : workers:int -> int -> (worker:int -> int -> unit) -> unit
(** [spread ~workers n f] runs [workers] bodies that claim the indices
    [0 .. n-1] from one atomic cursor, in order, and call [f ~worker i]
    for each claim ([worker] is the body's number in
    [0 .. workers-1]).  With [workers <= 1] it runs inline on the
    calling domain in index order and spawns no domain.  Otherwise
    body 0 runs on the calling domain and bodies [1 .. workers-1] on
    domains spawned for the call; every spawned domain is joined
    before [spread] returns.  If a spawn fails, the bodies already
    running still claim every index.  [f] must handle its own
    exceptions: with more than one worker, one that escapes ends its
    body alone and [spread] returns once the others are done.  A
    spawned body starts outside every stop scope, so an [f] that must
    stop enters one ({!Aig.Interrupt.within}). *)

(** {2 Steps shared by the race and the conquest} *)

val with_shared_proof :
  Sat.Proof.t option -> (Sat.Proof.t option -> 'a) -> 'a
(** [with_shared_proof proof f] runs [f] on a fresh deletion-free
    recorder when [proof] is given ([None] otherwise), then replays
    that recorder into [proof] if it was sealed — so a caller's
    recorder absorbs the shared log only when it tells the complete
    story. *)

val serialize : (string -> unit) option -> string -> unit
(** A log callback safe to call from several domains: calls are
    serialized and an exception from the callback is dropped. *)
