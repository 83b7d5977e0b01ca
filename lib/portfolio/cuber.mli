(** Cube-and-conquer on the portfolio's work loop.

    {2 Cube}

    {!split} partitions a formula into up to [cubes] leaves of a binary
    lookahead tree: each internal node picks a split variable with
    {!Sat.Solver.probe_split} (propagation lookahead over a bounded
    probe budget) and branches positive-then-negative.  A leaf whose
    prefix is refuted by unit propagation alone is kept as a {e dead}
    cube — it still owes the stitched proof its [¬cube] clause.

    {2 Conquer}

    {!solve} runs the live cubes as assumption jobs
    ({!Sat.Solver.solve_assuming}) through {!Runner.spread}: its
    workers claim cubes in order from one atomic cursor.  Live cube
    [k] is owned by worker [k mod workers], so a claim by any other
    worker is a steal, counted in {!report.steals}.
    Every claim runs inside {!Aig.Interrupt.within} the conquest's
    cancel flag, and the first SAT cube sets it, which cancels every
    sibling; an UNSAT instance is refuted cube-by-cube.

    {2 Stitch}

    An [Unsat] under assumptions is not DRAT-provable on its own
    ({!Sat.Solver.Incremental.solve}), so with [?proof] the conquer
    phase logs every cube job into one shared recorder and, once all
    cubes are refuted, appends the case-split tree bottom-up: each
    refuted leaf contributes [¬core] (RUP given that cube's learned
    clauses), each internal node [¬prefix] (RUP given its two
    children's clauses — assuming the prefix makes the children's
    clauses unit on opposite phases of the split variable), and the
    root — the empty prefix — {e is} the empty clause, sealing the
    recorder.  The whole [cube → conquer → stitch] stream validates
    under {!Sat.Proof.check} against the original formula. *)

type cube = {
  lits : int array;
      (** the cube's assumption literals (DIMACS), in split order *)
  dead : bool;
      (** refuted during lookahead by unit propagation alone — never
          submitted to a solver, but still stitched into the proof *)
}

type cube_outcome =
  | Cube_refuted  (** UNSAT under the cube's assumptions (or dead) *)
  | Cube_sat      (** this cube produced the winning model *)
  | Cube_cancelled
      (** never finished: a sibling answered first or an external
          interrupt fired *)
  | Cube_open     (** hit a resource limit without an answer *)
  | Cube_failed of string  (** the cube job raised *)

type report = {
  result : Sat.Solver.result;
  cubes : cube array;  (** the partition, in deterministic split order *)
  outcomes : cube_outcome array;  (** one per cube, same order *)
  solved : int;  (** cubes refuted or satisfied (dead ones included) *)
  steals : int;  (** cube claims by a non-owner worker *)
  refutation_complete : bool;
      (** every cube refuted — the only state in which [result = Unsat]
          is sound to publish or cache for the base formula *)
  proof_sealed : bool;
      (** a requested proof was stitched through the empty clause *)
  failure : string option;  (** first cube failure, if any *)
  wall : float;  (** cube+conquer+stitch wall seconds *)
  stats : Sat.Solver.stats;  (** summed over the cube solves *)
}

val split :
  ?cubes:int -> ?probe_limit:int -> Cnf.Flat.t ->
  [ `Cubes of cube array | `Sat of bool array | `Unsat ]
(** Partition the store into at most [cubes] (default 8) leaves,
    probing at most [probe_limit] (default 32) candidate variables per
    node.  [`Sat m] when lookahead propagation completed a model;
    [`Unsat] when the formula is refuted at level 0 (the empty clause
    is RUP against it outright).  Deterministic. *)

val solve :
  ?cubes:int -> ?probe_limit:int ->
  ?jobs:int ->
  ?limits:Sat.Solver.limits ->
  ?proof:Sat.Proof.t ->
  ?log:(string -> unit) ->
  ?on_cube:(int -> unit) ->
  Cnf.Flat.t -> report
(** Cube, conquer with [min jobs live-cubes] workers ([jobs] defaults
    to 4), stitch.  The calling domain is one worker and the others
    run on domains spawned for the conquest and joined before it
    returns ({!Runner.spread}); one worker conquers inline in cube
    order, spawns no domain and is bit-identical across runs.
    [limits] apply to each cube job separately.  With [proof], the shared recorder is replayed into it
    only when sealed ({!Runner.with_shared_proof}), so a partial
    conquest never leaves a half-told proof in the caller's recorder.
    The flag of the caller's stop scope ({!Aig.Interrupt.current}) is
    the conquest's cancel flag: setting it cancels the whole conquest
    ([result = Unknown]), and a SAT cube sets it.  Outside a scope the
    conquest creates its own.  [on_cube i] is a test hook invoked on
    the solving worker just before cube [i]'s job starts; an exception
    it raises fails that cube. *)
