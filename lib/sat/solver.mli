(** CDCL SAT solver (the Kissat stand-in of the reproduction).

    Implements the standard modern architecture: two-watched-literal
    propagation with blocker literals and specialized binary-clause
    watch lists, EVSIDS decision heuristic with phase saving, first-UIP
    clause learning with recursive minimization, Luby or Glucose
    (LBD moving-average) restarts and LBD-driven
    learned-clause-database reduction.

    Long clauses live in a single flat {e arena} (one growable
    [int array]; a clause reference is an offset, a one-word header
    packs size/flags/LBD and the literals follow inline), so
    propagation reads literals with zero pointer dereferences and the
    clause database costs the GC nothing beyond one flat array.  Each
    watcher is one int, [(cref lsl 31) lor blocker], and assignments
    are one byte per literal (0 false, 1 true, 2 unassigned), so the
    blocker test is a single byte load.  The packing limits a solver
    to [2^30 - 1] variables and an arena of [2^32] words: entry points
    raise [Invalid_argument] naming the limit for a larger variable
    count, before allocating anything.
    Database reduction compacts the arena with a copying collector
    that relocates every live reference; see DESIGN.md for the layout
    and the compaction protocol.  Anything that leaves the solver —
    models, assumption cores, exported clauses, proof steps — is a
    fresh array, never a view into the arena.

    The solver exposes its {e decision count} ("branching times"): the
    paper's RL reward and LUT cost metric both approximate solving
    complexity by the number of variable branching decisions (§3.2.5,
    §3.3.1), so this counter is the central observable. *)

type result =
  | Sat of bool array  (** model, indexed by variable - 1 *)
  | Unsat
  | Unknown            (** a resource limit was hit, or interrupted *)

type stats = {
  decisions : int;     (** branching times *)
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
  reduces : int;
      (** learnt-database reductions performed (each one compacts the
          clause arena) *)
  probed : int;
      (** inprocessing: literals probed for failed-literal detection
          (0 unless [?inprocess] was given) *)
  vivified : int;
      (** inprocessing: learnt clauses shortened or discarded by
          vivification *)
  inproc_subsumed : int;
      (** inprocessing: learnt clauses deleted or strengthened by the
          subsumption pass *)
  xors : int;
      (** XOR constraints of width 2–6 found as complete clause sets by
          the level-0 Gauss–Jordan pass ({!Gauss}; 0 with [?proof] and on
          the incremental and assumption entry points) *)
  xor_derived : int;
      (** units and binary equivalence clauses that pass added *)
  max_decision_level : int;
  time : float;
      (** monotonic {e wall-clock} seconds ({!Wall.now}).  This is
          what [max_seconds] is measured against: with N portfolio
          domains running, process CPU time advances ~N times faster
          than real time, so a CPU-clocked limit would fire N times
          early.  The CPU side is kept separately in [cpu_time]. *)
  cpu_time : float;
      (** process CPU seconds ([Sys.time]) consumed during the call.
          [Sys.time] measures the {e whole process}: under a portfolio
          this aggregates the work of every domain that ran
          concurrently, so [cpu_time] can exceed [time] — and a
          per-lane reading over-attributes the other lanes' work to
          each lane.  The portfolio runner therefore reports one
          race-level CPU figure (the winner outcome's [cpu_time]) and
          zeroes the field in the losing lanes' stats. *)
  minor_words : float;
      (** allocation telemetry: delta of [Gc.minor_words] across the
          call.  Divide by [conflicts] for the per-conflict figure the
          arena is meant to shrink.  Under a portfolio the counter is
          per-domain, so this measures only the reporting worker. *)
  major_collections : int;
      (** delta of major GC cycles across the call *)
}

val empty_stats : stats
(** Every counter zero: the stats of an answer no solve produced (a
    cache-side timeout, a race without a winner, a refutation found
    before search). *)

val check_num_vars : int -> unit
(** Raise [Invalid_argument] naming the solver's [2^30 - 1] variable
    limit when the count exceeds it — the check every entry point makes
    before allocating.  Front ends call it at ingest, so an oversized
    [p cnf] header is rejected before any transform allocates. *)

type limits = {
  max_conflicts : int option;
  max_decisions : int option;
  max_seconds : float option;  (** wall-clock seconds, see {!stats.time} *)
  deadline : float option;
      (** absolute {!Wall.now} instant at which the search gives up
          with [Unknown].  Unlike [max_seconds] — which measures from
          solve entry — a deadline is a property of the {e job}: the
          solve service stamps one deadline per submitted query, and
          every solver call made on the job's behalf (a portfolio
          lane starting late, a solve after an expensive preparation)
          stops at the same instant.  Probed on the budget tick like
          [max_seconds]. *)
}

val no_limits : limits

(** Cooperative cancellation, mirroring minisat's [interrupt] /
    [clearInterrupt].  A flag is an [Atomic.t] under the hood: any
    domain may {!Interrupt.set} it while a solve is running; the search
    probes it on every budget tick (one per conflict or decision) and
    returns [Unknown] within one tick.  The flag is not cleared by the
    solver — {!Interrupt.clear} re-arms it for reuse. *)
module Interrupt : sig
  type t

  val create : unit -> t

  val set : t -> unit
  (** Request cancellation; may be called from any domain. *)

  val clear : t -> unit
  val is_set : t -> bool
end

(** Restart-boundary inprocessing knobs.  Every [inproc_interval]
    restarts the solver runs, at decision level 0: failed-literal
    probing (up to [probe_limit] literals per pass; a probe whose
    propagation conflicts yields a level-0 unit), vivification of the
    [vivify_limit] most recent long learnt clauses (re-deriving each
    clause literal by literal under assumption of its negated prefix,
    shortening on a conflict, a satisfied or a falsified literal), and
    pairwise subsumption / self-subsuming strengthening over a
    [subsume_window] of the most recent long learnt clauses.  All
    derived clauses and deletions are DRAT-logged with the derived
    clause added {e before} its original is deleted, so a proof
    recorded with inprocessing enabled still validates under
    {!Proof.check}.  See DESIGN.md for the protocol and the arena
    interaction. *)
type inprocess = {
  inproc_interval : int;  (** fire the pass every this many restarts *)
  probe_limit : int;      (** max literals probed per pass *)
  vivify_limit : int;     (** max learnt clauses vivified per pass *)
  subsume_window : int;
      (** pairwise subsumption window over the most recent learnt
          clauses *)
}

val default_inprocess : inprocess
(** [{ inproc_interval = 4; probe_limit = 64; vivify_limit = 32;
      subsume_window = 32 }] *)

(** A warm-start snapshot: the transferable part of a finished (or
    interrupted) solve's state.  [seed_clauses] are (DIMACS literals,
    LBD) pairs — level-0 units first, then the lowest-LBD long learnt
    clauses in learn order, bounded (at most 4096 clauses of glue at
    most 6, tightening the glue threshold first when over budget).
    [seed_phases.(v)] is the saved phase of 0-based variable [v];
    [seed_order] lists variables most-active-first.

    A snapshot is only sound to seed into a solve of a formula with
    the {e same canonical fingerprint} ({!Cnf.Fingerprint}): equal
    fingerprints mean equal model sets, so every captured clause is
    implied by the receiving formula.  The seeding path re-validates
    shape (range, tautology, satisfaction at level 0) like a portfolio
    import, but implication is by construction, not re-checked —
    except under a DRAT recorder, where each seed clause is admitted
    only if RUP (see {!solve}). *)
type seed = {
  seed_clauses : (int array * int) array;
  seed_phases : bool array;
  seed_order : int array;
}

val solve :
  ?limits:limits -> ?proof:Proof.t -> ?heuristic:[ `Evsids | `Lrb ] ->
  ?restarts:[ `Luby | `Glucose ] ->
  ?reduce_base:int ->
  ?reduce_inc:int ->
  ?inprocess:inprocess ->
  ?on_learnt:(int array -> int -> unit) ->
  ?interrupt:Interrupt.t ->
  ?export:(int array -> int -> unit) ->
  ?export_lbd:int ->
  ?import:(unit -> (int array * int) list) ->
  ?seed:seed ->
  ?snapshot:(seed -> unit) ->
  Cnf.Formula.t -> result * stats
(** Solve a formula from scratch.  When the result is [Sat m], [m]
    satisfies the formula (checked cheaply by the caller via
    {!Cnf.Formula.eval} if desired).  With [proof], every learned
    clause and every learned-clause deletion is logged in DRAT; an
    [Unsat] answer ends the log with the empty clause, and the whole
    log validates under {!Proof.check}.  Without [proof], the loader
    also recovers the XOR constraints the formula encodes as complete
    clause sets and eliminates them over GF(2) ({!Gauss}): an
    inconsistent system answers [Unsat] before search, and the derived
    units and binary equivalences the input lacks are added (see
    [stats.xors], [stats.xor_derived]).  With fewer than two XORs, or
    nothing new derived, the solver gets exactly the input clauses.
    With [proof] the pass does not run: a GF(2) sum is not a RUP step.
    [heuristic] selects the
    branching scheme: exponential VSIDS (default) or the learning-rate
    heuristic of Liang et al. 2016 — the paper's reference [23].
    [restarts] selects the restart schedule: Luby with unit 100
    (default) or Glucose-style, firing when the moving average of the
    last 50 learned-clause LBDs exceeds 0.8 times the running mean.
    [reduce_base] (default 2000) and [reduce_inc] (default 512) set
    the initial learnt-database size cap and its growth after each
    reduction; tests shrink them to force frequent arena compactions.
    [inprocess] enables restart-boundary inprocessing (see
    {!inprocess}); when absent — the default — none of that code runs
    and the search trajectory is bit-identical to the solver without
    it, preserving the jobs=1 portfolio bit-identity guarantee.
    [on_learnt lits lbd] is an instrumentation hook invoked for every
    learned clause at learn time — before backjumping, while all of
    [lits] (internal literal encoding, first-UIP first) are still
    assigned — with the glue value [lbd] stored for that clause.

    The remaining hooks are the portfolio surface (see
    [lib/portfolio]):

    - [interrupt] cancels the search cooperatively; the answer is
      [Unknown].
    - [export clause lbd] is invoked at learn time, with {e DIMACS}
      literals, for every learned clause whose glue is at most
      [export_lbd] (default: export everything when [export] is
      given).  When a shared [proof] is in use the clause is logged
      before it is exported, so an importer can rely on finding it in
      the recorder.
    - [import] is polled at every restart (and once on entry), at
      decision level 0; it returns [(clause, lbd)] pairs in DIMACS
      literals which join the learnt database.  Imported clauses must
      be implied by the formula (e.g. learned by another solver on the
      same formula); they are {e not} re-logged to [proof], because
      under the shared recorder discipline the exporting worker
      already logged them.

    The hooks run in the solving domain; [export]/[import] callbacks
    must themselves be safe to call from that domain (the portfolio's
    clause bus is mutex-guarded).

    [seed] warm-starts the solve from a {!seed} snapshot captured on
    an earlier solve of a formula with the same canonical fingerprint:
    phases and activity order are installed, and the snapshot clauses
    join the learnt database at level 0 before the first decision.
    Without [proof], seed clauses are attached as implied (the
    fingerprint contract); with [proof], each is admitted only if RUP
    against the current database — logged, then attached — and
    silently dropped otherwise, so an UNSAT answer's DRAT log still
    validates under {!Proof.check}.  [snapshot] is invoked once, with
    the state captured at exit, on {e every} outcome — including
    [Unknown] from an interrupt or deadline, which is what lets a
    timed-out job resume on resubmission.  With both absent the
    trajectory is bit-identical to the solver without this feature. *)

val solve_flat :
  ?limits:limits -> ?proof:Proof.t -> ?heuristic:[ `Evsids | `Lrb ] ->
  ?restarts:[ `Luby | `Glucose ] ->
  ?reduce_base:int ->
  ?reduce_inc:int ->
  ?inprocess:inprocess ->
  ?on_learnt:(int array -> int -> unit) ->
  ?interrupt:Interrupt.t ->
  ?export:(int array -> int -> unit) ->
  ?export_lbd:int ->
  ?import:(unit -> (int array * int) list) ->
  ?seed:seed ->
  ?snapshot:(seed -> unit) ->
  Cnf.Flat.t -> result * stats
(** {!solve} over a flat CSR store ({!Cnf.Flat}), loading clauses
    straight from the CSR arrays into the clause arena with zero
    per-clause allocation.  This is the one loader: [solve f] is
    [solve_flat (Flat.of_formula f)], so both produce the same search
    trajectory and stats.
    @raise Invalid_argument if [num_vars] exceeds [2^30 - 1], before
    anything is allocated. *)

val decisions_or_max : ?limits:limits -> Cnf.Formula.t -> int
(** Convenience for the RL reward: the decision count of a solve, or
    the configured decision cap when the limit was hit. *)

val pp_stats : Format.formatter -> stats -> unit

(** Incremental solving under assumptions: one persistent solver that
    accumulates clauses across queries, so learned clauses are reused —
    the mode SAT sweeping engines drive their solver in. *)
module Incremental : sig
  type session

  val create : unit -> session
  (** An empty session with no variables. *)

  val num_vars : session -> int

  val new_var : session -> int
  (** Allocate the next variable; returns its (1-based) DIMACS index.
      Variables are also allocated implicitly by {!add_clause}. *)

  val add_clause : session -> int array -> unit
  (** Add a clause (DIMACS literals) permanently.  Must not be called
      while a solve is in progress. *)

  val add_formula : session -> Cnf.Formula.t -> unit

  val solve :
    ?limits:limits -> ?proof:Proof.t -> ?heuristic:[ `Evsids | `Lrb ] ->
    ?restarts:[ `Luby | `Glucose ] ->
    ?reduce_base:int -> ?reduce_inc:int ->
    ?inprocess:inprocess ->
    ?interrupt:Interrupt.t ->
    ?assumptions:int array -> session ->
    result * stats
  (** Solve the accumulated clauses under the given assumption
      literals.  [interrupt] cancels the query cooperatively (answer
      [Unknown]), as in the batch {!solve}.
      [Unsat] means unsatisfiable {e under the assumptions}
      (permanently unsatisfiable once it occurs with none).  Models
      cover all variables allocated so far.  Statistics are cumulative
      across the session's queries.

      With [proof], clauses learned {e during this call} (and
      learned-clause deletions) are logged in DRAT.  Learned clauses
      are implied by the accumulated clause database alone — never by
      the assumptions, which enter learned clauses as ordinary
      literals — so a log accumulated by passing the {e same} [proof]
      to every [solve] call of the session validates under
      {!Proof.check} against the conjunction of all clauses added so
      far.  The log is terminated with the empty clause only when a
      call answers [Unsat] with no assumptions involved in the
      conflict; an [Unsat] {e under assumptions} is not a DRAT-provable
      fact and leaves the log open.  A [proof] that is already
      {!Proof.sealed} when [solve] is called (a completed refutation
      reused across queries) is left untouched: logging for that call
      is an explicit no-op, so the sealed log stays exactly the
      checkable refutation it was. *)

  val last_core : session -> int array
  (** After an [Unsat] answer under assumptions: a subset of the
      assumption literals sufficient for the contradiction (empty when
      the formula is unsatisfiable outright or the last answer was not
      [Unsat]).  Returns a fresh array on every call — the caller may
      mutate it freely. *)
end

(** {1 Cube-and-conquer surface}

    The lookahead prober and the assumption-job entry point the
    portfolio cuber builds on (see [lib/portfolio/cuber.ml]). *)

type prober
(** A prepared solver specialized for level-0 lookahead: clauses loaded
    and level-0 units propagated, plus a deterministic candidate order
    (most-occurring variables first, ties on index).  Not thread-safe —
    one domain at a time. *)

val prober : Cnf.Formula.t -> [ `Prober of prober | `Unsat ]
(** Prepare a formula for probing.  [`Unsat] when the formula is
    refuted by normalization or level-0 unit propagation alone (the
    empty clause is RUP against it). *)

val probe_split :
  prober -> prefix:int array -> limit:int ->
  [ `Sat of bool array | `Split of int | `Unsat ]
(** Score a split variable for the cube [prefix] (DIMACS literals).
    The prefix is placed on pseudo decision levels with unit
    propagation after each literal; then up to [limit] unassigned
    candidate variables are probed in both phases, scoring each by
    propagation lookahead (march-style product of the two trail
    growths, a conflicting phase scoring highest — splitting there
    hands one child a free UP refutation).

    - [`Unsat]: the prefix is refuted by unit propagation alone, so
      the clause [¬prefix] is RUP against the original formula.
    - [`Sat m]: propagation completed the assignment with no conflict;
      [m] is a model of the formula.
    - [`Split v]: the chosen split variable, as a positive DIMACS
      index.

    Deterministic for a given (prober, prefix, limit).  The prober is
    reset to level 0 before and after each call, so calls may be made
    in any prefix order. *)

val solve_assuming :
  ?limits:limits -> ?proof:Proof.t -> ?heuristic:[ `Evsids | `Lrb ] ->
  ?restarts:[ `Luby | `Glucose ] ->
  ?reduce_base:int -> ?reduce_inc:int ->
  ?interrupt:Interrupt.t ->
  ?snapshot:(seed -> unit) ->
  assumptions:int array -> Cnf.Formula.t ->
  result * stats * int array
(** Solve [f] under the assumption literals (DIMACS) in a fresh
    one-shot session — the cube-job entry point.  Returns
    [(result, stats, core)] where [core] is {!Incremental.last_core}'s
    answer: on [Unsat] {e under the assumptions}, a subset of them
    sufficient for the contradiction; empty when the formula is
    unsatisfiable outright (in which case a supplied [proof] has been
    sealed with the empty clause by the solver itself).

    Proof discipline is the incremental one: learned clauses logged to
    [proof] never depend on the assumptions, so one shared recorder
    accumulating the logs of many cube jobs over the same formula
    stays RUP-checkable against that formula; an [Unsat] under
    assumptions leaves the log open for the caller to stitch (log
    [¬core], which is RUP given this call's learned clauses).

    {b Cube-aware snapshot guard}: [snapshot] fires only when
    [assumptions] is empty.  A seed captured mid-cube would bake
    cube-local phases and activity into a warm start of the {e base}
    formula — silently skipping the capture keeps the warm cache
    sound (see the warm-start contract on {!seed}). *)
