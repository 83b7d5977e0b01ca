(** Tseitin encoding of AIGs into CNF.

    Every reachable node gets a CNF variable; an AND node [o = a * b]
    contributes the three clauses [(~o a) (~o b) (o ~a ~b)].  Primary
    inputs take variables [1 .. num_pis] so models restrict directly to
    input assignments. *)

type encoding = {
  formula : Formula.t;
  node_var : int array;   (** node id -> variable (0 if unreachable) *)
  output_lits : int array; (** DIMACS literal of each PO *)
}

val encode :
  ?assert_outputs:bool -> ?plaisted_greenbaum:bool -> Aig.Graph.t -> encoding
(** [encode ~assert_outputs g]: when [assert_outputs] (default true) a
    unit clause forces every primary output to 1, so the formula is
    satisfiable iff some input assignment sets all outputs.  A
    constant-true PO contributes nothing; a constant-false PO makes the
    formula trivially unsatisfiable (empty clause).

    With [plaisted_greenbaum] (default false) the polarity-aware
    encoding is used: a gate referenced in only one polarity keeps only
    the implication clauses of that direction.  Equisatisfiable with
    the full encoding (and smaller), but gate variables in a model are
    no longer guaranteed to equal the gate's simulated value — only
    input variables are meaningful. *)
