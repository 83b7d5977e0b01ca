(** The EDA-driven preprocessing pipeline (Algorithm 1) and the
    experiment presets built on it.

    Every run produces a {!report} carrying the timing decomposition of
    the paper's tables: T_agent (embedding + Q-network inference),
    T_trans (CNF-to-circuit recovery, logic synthesis, LUT mapping and
    CNF re-encoding) and T_solve, with T_all their sum. *)

type recipe_source =
  | No_preprocessing
      (** Solve the instance's direct formula — the Baseline columns. *)
  | Fixed of Synth.Recipe.op list
  | Random_policy of { seed : int; steps : int }
      (** The "w/o RL" ablation of §4.3. *)
  | Agent of Rl.Dqn.t * int
      (** Trained agent and maximum step count T. *)

type config = {
  recipe : recipe_source;
  mapper : Lutmap.Mapper.config;
  embed : Deepgate.Embedding.config;
  advanced_recovery : bool;
      (** use the order-independent cnf2aig when the input is CNF *)
}

type report = {
  instance : string;
  recipe_used : Synth.Recipe.op list;
  vars : int;
  clauses : int;
  t_agent : float;
  t_trans : float;
  t_solve : float;
  result : Sat.Solver.result;
  solver_stats : Sat.Solver.stats;
  aig_before : Aig.Stats.snapshot option;
  aig_after : Aig.Stats.snapshot option;
  netlist_luts : int;
  netlist_levels : int;
}

val t_all : report -> float

val run :
  ?limits:Sat.Solver.limits -> ?proof:Sat.Proof.t -> config -> Instance.t ->
  report
(** Full Algorithm 1 (or a direct solve for [No_preprocessing]): the
    CNF that {!transform} returns goes to {!Sat.Solver.solve}.

    With [?proof], learned clauses are DRAT-logged into the recorder,
    so an [Unsat] answer seals a stream that {!Sat.Proof.check}
    validates against that CNF (the transformed formula, or the
    direct formula under [No_preprocessing]). *)

val synthesize :
  config -> Aig.Graph.t ->
  Aig.Graph.t * Synth.Recipe.op list * float * float
(** The synthesis step of Algorithm 1: [synthesize config g0] runs the
    recipe [config] selects on [g0] and returns the synthesized graph,
    the operations actually run, T_agent and the synthesis time (s).
    Every recipe stops at its first [End], as the agent's [end] action
    does; [No_preprocessing] runs nothing. *)

val transform : config -> Instance.t -> Cnf.Formula.t * report
(** Algorithm 1 without the final solve: returns the simplified CNF
    \phi_out for an external solver.  The report's solver fields are
    zeroed and [result] is [Unknown].  With [No_preprocessing] the
    instance's direct formula is returned unchanged.

    Run inside {!Aig.Interrupt.within} a flag, the transformation
    stops with {!Aig.Interrupt.Stopped} within one clause, node or LUT
    of the flag being set: cnf2aig, every synthesis operator
    ({!Synth.Pass}), the mapper and the encoder poll it, and the agent
    polls on each step.  The portfolio runs its EDA lanes' [transform]
    this way.  Outside a scope nothing polls true. *)

(** {1 Experiment presets} *)

val baseline : config
(** Solve directly, no preprocessing. *)

val een2007 : config
(** The comparison approach "[15]" (Eén, Mishchenko & Sörensson 2007):
    synthesis for size (a compress2-style script) followed by
    conventional minimum-area LUT mapping. *)

val ours : ?agent:Rl.Dqn.t -> ?max_steps:int -> unit -> config
(** The full framework: RL-guided recipe (or, without an agent, the
    best fixed recipe) + cost-customized mapping. *)

val ours_without_rl : seed:int -> config
(** Random synthesis policy, cost-customized mapping (§4.3 ablation). *)

val ours_conventional_mapper : ?agent:Rl.Dqn.t -> unit -> config
(** RL recipe with the conventional mapper (§4.4 ablation). *)

(** {1 Portfolio racing} *)

val portfolio_strategies :
  ?jobs:int -> config -> Instance.t -> Portfolio.Strategy.t list
(** The diversified lane pool raced by {!run_portfolio}: direct lanes
    (heuristic × restart-schedule grid over the instance's own CNF,
    exchanging low-LBD learnt clauses) interleaved with EDA lanes that
    run [transform config] — and the Eén-2007 recipe — as their
    preparation step, so Algorithm 1 preprocessing competes as a
    portfolio member instead of a mandatory prefix.  With
    [No_preprocessing] the pool is direct-only.  At least [jobs]
    (default 4) strategies are returned. *)

val run_portfolio :
  ?limits:Sat.Solver.limits ->
  ?jobs:int ->
  ?share_lbd:int ->
  ?proof:Sat.Proof.t ->
  ?log:(string -> unit) ->
  config ->
  Instance.t ->
  report * Portfolio.Runner.outcome
(** Race {!portfolio_strategies} on the instance with
    {!Portfolio.Runner.run}.  The report's [t_solve] is the race's
    wall-clock time and its solver fields are the winner's; [vars] and
    [clauses] describe the direct formula.  See {!Portfolio.Runner}
    for proof semantics ([proof] is completed only when a direct lane
    refutes the input formula) and the race rule, under which
    [jobs = 1] runs the lanes in order, deterministically. *)

(** {1 Cube-and-conquer} *)

val solve_cube :
  ?limits:Sat.Solver.limits ->
  ?cubes:int ->
  ?probe_limit:int ->
  ?jobs:int ->
  ?proof:Sat.Proof.t ->
  ?log:(string -> unit) ->
  Instance.t ->
  report * Portfolio.Cuber.report
(** Cube-and-conquer the instance's direct formula with
    {!Portfolio.Cuber.solve}: lookahead-split into up to [cubes]
    cubes, conquer them on [jobs] domains with work stealing and
    first-SAT sibling cancellation, and — with [proof] — stitch each
    refuted cube's [¬cube] clause into one RUP-checkable DRAT stream
    closed by the empty clause.  [limits] bound each cube job
    separately.  The report's [t_solve] is the whole
    cube→conquer→stitch wall time; [jobs = 1] is deterministic. *)

val reduction : baseline:report -> report -> float
(** Percentage reduction of T_all versus the baseline ("Red." columns). *)

val pp_report : Format.formatter -> report -> unit
