(** CDCL SAT solver (the Kissat stand-in of the reproduction).

    Implements the standard modern architecture: two-watched-literal
    propagation with blocker literals and specialized binary-clause
    watch lists, EVSIDS decision heuristic with phase saving, first-UIP
    clause learning with recursive minimization, Glucose (LBD
    moving-average) restarts by default or Luby restarts on request,
    and LBD-driven learned-clause-database reduction.  The solver does
    not rewrite its clause database at restarts.

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
  xors : int;
      (** XOR constraints of width 2–6 found as complete clause sets by
          the level-0 Gauss–Jordan pass ({!Cnf.Gauss}; 0 with [?proof]
          and on the incremental and assumption entry points) *)
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

val add_stats : stats -> stats -> stats
(** Field-wise sum of two solves' stats ([max_decision_level] takes the
    maximum): the total of a run of solves, such as a cube conquest. *)

val check_num_vars : int -> unit
(** Raise [Invalid_argument] naming the solver's [2^30 - 1] variable
    limit when the count exceeds it — the check every entry point makes
    before allocating.  Front ends call it at ingest, so an oversized
    [p cnf] header is rejected before any transform allocates. *)

(** Every condition on which a solve stops with [Unknown].  They are
    probed on the budget tick (one per conflict or decision), the two
    wall-clock limits on every 256th.  A solve also stops on the tick
    after the flag of the caller's stop scope is set: it reads
    {!Aig.Interrupt.current} once at entry, so every entry point —
    batch, incremental, assumption and cube solves — run inside
    {!Aig.Interrupt.within} a flag stops when the flag is set, and the
    flag is not cleared.  On an {!Incremental} session,
    [max_conflicts] and [max_decisions] are compared with the
    session's cumulative counts, counted from its creation, not from
    the start of the call. *)
type limits = {
  max_conflicts : int option;
  max_decisions : int option;
  max_seconds : float option;  (** wall-clock seconds, see {!stats.time} *)
  deadline : float option;
      (** absolute {!Wall.now} instant at which the search gives up.
          Unlike [max_seconds] — which measures from solve entry — a
          deadline is a property of the {e job}: the solve service
          stamps one deadline per submitted query, and every solver
          call made on the job's behalf (a portfolio lane starting
          late, a solve after an expensive preparation) stops at the
          same instant. *)
}

val no_limits : limits

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
    only if RUP (see {!config.seed}). *)
type seed = {
  seed_clauses : (int array * int) array;
  seed_phases : bool array;
  seed_order : int array;
}

(** The search settings of a batch solve ({!solve_flat}).
    {!Incremental.solve} reads only [reduce_base] and [reduce_inc]. *)
type config = {
  heuristic : [ `Evsids | `Lrb ];
      (** branching: exponential VSIDS (default) or the learning-rate
          heuristic of Liang et al. 2016 — the paper's reference
          [23]. *)
  restarts : [ `Luby | `Glucose ];
      (** Glucose-style (default), firing when the moving average of
          the last 50 learned-clause LBDs exceeds 0.8 times the
          running mean, at least 50 conflicts after the last restart;
          or Luby with unit 100. *)
  reduce_base : int;
      (** the initial learnt-database size cap (default 2000) *)
  reduce_inc : int;
      (** the cap's growth after each reduction (default 512); tests
          shrink both to force frequent arena compactions *)
  export : (int array -> int -> unit) option;
      (** [export clause lbd] is invoked at learn time, before
          backjumping, with {e DIMACS} literals (the asserting literal
          first) and the glue stored for that clause, for every
          learned clause whose glue is at most [export_lbd].  When a
          shared proof is in use the clause is logged before it is
          exported, so an importer can rely on finding it in the
          recorder.  Runs in the solving domain, so it must be safe to
          call from there (the portfolio's clause bus is
          mutex-guarded). *)
  export_lbd : int;
      (** the glue bound of [export] (default [max_int]: everything) *)
  import : (unit -> (int array * int) list) option;
      (** polled at every restart (and once on entry), at decision
          level 0; it returns [(clause, lbd)] pairs in DIMACS literals
          which join the learnt database.  Imported clauses must be
          implied by the formula (e.g. learned by another solver on
          the same formula); they are {e not} re-logged to the proof,
          because under the shared recorder discipline the exporting
          worker already logged them.  Runs in the solving domain. *)
  seed : seed option;
      (** warm-start from a snapshot captured on an earlier solve of a
          formula with the same canonical fingerprint: phases and
          activity order are installed, and the snapshot clauses join
          the learnt database at level 0 before the first decision.
          Without a proof, seed clauses are attached as implied (the
          fingerprint contract); with one, each is admitted only if
          RUP against the current database — logged, then attached —
          and silently dropped otherwise, so an UNSAT answer's DRAT
          log still validates under {!Proof.check}. *)
  snapshot : (seed -> unit) option;
      (** invoked once, with the state captured at exit, on {e every}
          outcome — including [Unknown] from an interrupt or deadline,
          which is what lets a timed-out job resume on resubmission.
          With [seed] and [snapshot] both [None] the trajectory is
          bit-identical to the solver without this feature. *)
}

val default_config : config
(** EVSIDS, Glucose restarts, the 2000/512 reduce schedule, and no
    hooks. *)

val solve_flat :
  ?config:config -> ?limits:limits -> ?proof:Proof.t ->
  Cnf.Flat.t -> result * stats
(** Solve a flat CSR store ({!Cnf.Flat}) from scratch, loading clauses
    straight from the CSR arrays into the clause arena with zero
    per-clause allocation.  When the result is [Sat m], [m] satisfies
    the store.  With [proof], every learned clause and every
    learned-clause deletion is logged in DRAT; an [Unsat] answer ends
    the log with the empty clause, and the whole log validates under
    {!Proof.check}.  Without [proof], the loader also recovers the XOR
    constraints the store encodes as complete clause sets and
    eliminates them over GF(2) ({!Cnf.Gauss}): an inconsistent system
    answers [Unsat] before search, and the derived units and binary
    equivalences the input lacks are added (see [stats.xors],
    [stats.xor_derived]).  With fewer than two XORs, or nothing new
    derived, the solver gets exactly the input clauses.  With [proof]
    the pass does not run: a GF(2) sum is not a RUP step.

    The clause arena and its compaction twin come from a per-domain
    slot and go back to it when the call returns, so a stream of
    solves on one domain reuses one pair instead of regrowing an arena
    by doubling straight into the major heap.  A call that raises
    keeps nothing, and a pair of which either array outgrew
    {!max_pooled_arena_words} is dropped.  Reuse is invisible to the
    search: the result and every counter but the time and allocation
    telemetry equal those of a solve on a fresh domain.  {!Incremental}
    sessions and {!prober} keep arenas of their own.
    @raise Invalid_argument if [num_vars] exceeds [2^30 - 1], before
    anything is allocated. *)

val max_pooled_arena_words : int
(** [2^16] (512 KB): the largest arena, and the largest twin, that
    {!solve_flat} hands back to its domain's slot.  A pooled pair is
    live data every major GC cycle marks word by word.  Measured with
    perfbench on a 2-core x86-64 VM: at [2^20] the pair [eda_suite]'s
    solves leave ([2^18] words each) raised its peak RSS from 56 to
    91 MB; at [2^16] it stayed flat, while [serve_light]'s arenas and
    [serve_heavy]'s php(8,7) and 400-AND miter arenas still fit, and
    [serve_heavy] read the same peak RSS as at [2^20] (40 MB) for
    33-34 major collections per 20 s run instead of 21-22. *)

val pooled_arena_words : unit -> int
(** Words held by the calling domain's slot: the lengths of the pooled
    arena and twin, [0] when the slot is empty. *)

val solve :
  ?limits:limits -> ?proof:Proof.t -> ?heuristic:[ `Evsids | `Lrb ] ->
  ?restarts:[ `Luby | `Glucose ] ->
  Cnf.Formula.t -> result * stats
(** [solve_flat ~config:{ default_config with heuristic; restarts }
    (Cnf.Flat.of_formula f)]: the same search trajectory and stats as
    the flat entry point, for callers that hold a formula.  The two
    search arguments default to [default_config]'s. *)

val pp_stats : Format.formatter -> stats -> unit

(** Incremental solving under assumptions: one persistent solver that
    accumulates clauses across queries, so learned clauses are reused —
    the mode SAT sweeping engines drive their solver in. *)
module Incremental : sig
  type session

  val create : ?capacity:int -> unit -> session
  (** An empty session with no variables, with room for [capacity]
      (default 0) before its per-variable tables grow.  A caller that
      knows its final size reserves it here and saves the doubling
      copies. *)

  val num_vars : session -> int

  val new_var : session -> int
  (** Allocate the next variable; returns its (1-based) DIMACS index.
      Variables are also allocated implicitly by {!add_clause}. *)

  val add_clause : session -> int array -> unit
  (** Add a clause (DIMACS literals) permanently, normalized like the
      batch loader's clauses.  Must not be called while a solve is in
      progress. *)

  val add_formula : session -> Cnf.Formula.t -> unit

  val solve :
    ?config:config -> ?limits:limits -> ?proof:Proof.t ->
    ?assumptions:int array -> session ->
    result * stats
  (** Solve the accumulated clauses under the given assumption
      literals.  Of [config], only [reduce_base] and [reduce_inc] apply
      here: the search runs EVSIDS with Glucose restarts and no hooks.
      [Unsat] means unsatisfiable {e under the assumptions}
      (permanently unsatisfiable once it occurs with none).  Models
      cover all variables allocated so far.  Statistics are cumulative
      across the session's queries, and so are the conflict and
      decision budgets of [limits]: a call stops once the session's
      total since its creation reaches them.

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
      checkable refutation it was.
      @raise Invalid_argument naming every other [config] field that
      differs from {!default_config}. *)

  val check :
    ?config:config -> ?limits:limits -> ?proof:Proof.t ->
    ?assumptions:int array -> session ->
    [ `Sat | `Unsat | `Unknown ] * stats
  (** {!solve} without building the model: the same search, the same
      answer and stats, the same proof logging.  After [`Sat], read
      the model with {!model_value}.  A call's setup costs the
      variables added since the previous call, not the session's
      size. *)

  val model_value : session -> int -> bool
  (** [model_value s v] after a [`Sat] answer of {!check}: the value
      of DIMACS variable [v] in the model.  It reads the solver's
      saved phase, which the search wrote when it assigned [v], so it
      allocates nothing.  Valid until the next {!add_clause} or solve
      on the session, and, when some variables are not decision
      variables, only for the variables the search assigned (see
      {!set_decision}). *)

  val set_decision : session -> int -> bool -> unit
  (** [set_decision s v b] (MiniSat's [setDecisionVar]): whether the
      search may branch on DIMACS variable [v].  Every variable is a
      decision variable until it is switched off; call between
      solves.  Switching a variable costs O(log n) and a solve's setup
      costs nothing per non-decision variable, so a caller can bound a
      query by its cone: switch the cone's variables on, solve, and
      switch them off again.

      With non-decision variables, [`Sat] means less: unit
      propagation reached a conflict-free fixpoint in which every
      decision variable and every assumption is assigned, and the
      other variables may be unassigned.  That is a model of the whole
      clause set only when the caller knows that any such assignment
      extends to one.  It does for a Tseitin encoding of a circuit
      whose decision variables are closed under fan-in: the unassigned
      gates take the values their inputs give them, and a variable
      that occurs in the clauses with one sign only (an activation
      literal) takes the value that satisfies them.  {!model_value}
      is then exact on the decision variables and the variables
      propagation assigned, and returns a stale phase for the rest;
      {!solve}'s model carries those stale phases too.  [`Unsat] and
      [`Unknown] mean what they always mean. *)

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

val prober : Cnf.Flat.t -> [ `Prober of prober | `Unsat ]
(** Prepare a store for probing.  [`Unsat] when the store is
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
  ?limits:limits -> ?proof:Proof.t ->
  assumptions:int array -> Cnf.Flat.t ->
  result * stats * int array
(** Solve a store under the assumption literals (DIMACS) in a fresh
    one-shot session, loading each clause through
    {!Incremental.add_clause}'s normalization — the cube-job entry
    point.  Returns
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
    [¬core], which is RUP given this call's learned clauses). *)
