(** Cone refactoring (the [refactor] operation, after Brayton's
    decomposition/factorization and ABC's [refactor]).

    Where {!Rewrite} works on enumerated k-feasible cuts (k <= 6), this
    pass grows a {e reconvergence-driven} cut of up to [max_leaves]
    inputs around each node, collapses the cone into its truth table
    and re-synthesizes it as an ISOP-factored form, accepting the
    replacement when it costs fewer nodes than the fanout-free cone it
    frees.  Catches restructurings across wider windows than the
    rewriter can see.  Like {!Rewrite}, a pass records each cone
    function's factored form once and replays it for the tentative and
    the final build. *)

val run :
  ?max_leaves:int -> ?max_cone:int -> Aig.Graph.t -> Aig.Graph.t
(** Defaults: [max_leaves = 10], [max_cone = 60] (nodes collapsed per
    attempt).  Functionality is preserved by construction. *)
