(** Diversified solver configurations for the portfolio race.

    A strategy names one lane of the race: a branching heuristic and a
    restart schedule for the CDCL core, optionally behind a [prepare]
    step that derives the CNF the lane actually solves (the EDA
    preprocessing pipeline is plugged in this way — preprocessing
    itself races against direct solving, paying its transformation
    time inside its own lane's wall clock).

    Lanes that solve the input formula may exchange learned clauses;
    lanes solving a transformed (equisatisfiable but different) CNF
    must not — a clause learned from φ_out is not in general implied
    by φ_in.  So sharing follows [prepare]: a lane without one shares
    clauses with every other such lane and logs into the race's shared
    DRAT recorder, and a lane with one does neither. *)

type t = {
  name : string;
  heuristic : [ `Evsids | `Lrb ];
  restarts : [ `Luby | `Glucose ];
  prepare : (unit -> Cnf.Formula.t) option;
      (** build this lane's CNF (run by the worker that claims the lane);
          [None] solves the input formula.  A [Sat] answer carries the
          derived formula's model.  The runner calls it inside
          {!Aig.Interrupt.within} the race's cancel flag, so a
          preparation that polls that scope (cnf2aig, the synthesis
          operators, the mapper and the encoder do, once per clause,
          node or LUT) raises {!Aig.Interrupt.Stopped} soon after the
          race is decided, and the lane reads [Cancelled].  A lane with a
          [prepare] step neither shares clauses nor logs a proof. *)
}

val direct : ?heuristic:[ `Evsids | `Lrb ] -> ?restarts:[ `Luby | `Glucose ]
  -> string -> t
(** A lane solving the input formula; it shares clauses.  Defaults:
    those of {!Sat.Solver.default_config} (EVSIDS, Glucose) — the exact
    configuration of {!Sat.Solver.solve}, which makes [direct "x"] the
    deterministic anchor lane. *)

val prepared : ?heuristic:[ `Evsids | `Lrb ] -> ?restarts:[ `Luby | `Glucose ]
  -> string -> (unit -> Cnf.Formula.t) -> t
(** A lane that first derives its own CNF; it never shares clauses.
    Defaults as for {!direct}. *)

val grid : int -> (string * [ `Evsids | `Lrb ] * [ `Luby | `Glucose ]) list
(** The first [n] points of the deterministic heuristic-by-restart
    diversification cycle: evsids/glucose, lrb/luby, evsids/luby,
    lrb/glucose, then repeating.  The anchor configuration (the
    solver's default) comes first, then both axes flipped, then the
    two mixed points. *)

val default_pool : jobs:int -> t list
(** [jobs] direct lanes over {!grid} — the pure-solver portfolio used
    when no preprocessing lanes are available. *)

val pp : Format.formatter -> t -> unit
