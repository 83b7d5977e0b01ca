(** Circuit recovery from CNF (the [cnf2aig] substrate, after Seltner's
    "Extracting hardware circuits from CNF formulas").

    Scans the clause set for Tseitin-style gate definitions —
    multi-input AND/OR/NAND/NOR patterns and 2-input XOR/XNOR patterns —
    and rebuilds a DAG from them.  In the default mode a definition
    [v = f(inputs)] is accepted only when every input variable is
    numerically smaller than [v], which guarantees acyclicity (and
    recovers everything for CNFs produced by {!Tseitin.encode}).  In
    [advanced] mode — the improved transformation the paper's §4.6
    calls for — candidates are accepted in decreasing-width order with
    an explicit dependency-cycle check, so recovery survives arbitrary
    variable renumbering.

    Variables without an accepted definition become primary inputs.
    Only variables up to the largest one that occurs in a clause are
    recovered: the header's count sizes nothing, and a declared
    variable past the last one used is left out (it is unconstrained,
    so any value of it extends a model).
    Among the clauses no definition absorbed, XOR constraints —
    complete parity clause sets of width 2–6 with no output, found by
    the solver's detector ({!Gauss}) — each become a balanced XOR tree,
    asserted as a primary output of its own.  The clauses left over
    become constraint cones, chained into one more primary output (left
    out when XOR outputs exist and no clause is left).  Outputs are a
    conjunction, as {!Tseitin.encode} asserts them: the original
    formula is satisfiable iff every circuit output can be driven to 1
    at once.  Keeping the parity structure visible lets the solver's
    level-0 XOR pass work on the re-encoded circuit, since the mapper
    keeps a small XOR tree whole in one LUT and a parity LUT encodes as
    a complete clause set again. *)

type result = {
  graph : Aig.Graph.t;
  pi_vars : int array;        (** original variable of each PI *)
  var_lit : Aig.Graph.lit array;
      (** the literal computing each original variable up to the
          largest that occurs (index 0 unused): its PI, or its
          recovered gate's output.  Simulating the graph under a
          model's PI values and reading these lifts the model to the
          original formula. *)
  gates_recovered : int;
  xors_recovered : int;       (** XOR constraints turned into outputs *)
  clauses_absorbed : int;     (** clauses held by a gate or an XOR *)
}

val run : ?advanced:bool -> Formula.t -> result
(** @raise Aig.Interrupt.Stopped within a clause of a stop. *)

val stats : result -> string
(** Human-readable one-liner for logs. *)
