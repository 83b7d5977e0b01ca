(** Building AIG structure from Boolean functions.

    Converts a function (given as a truth table or an SOP cover over a
    set of leaf literals) into AND/INV structure, using literal-division
    factoring to share common subexpressions.  Used by the rewriter and
    the refactoring pass to synthesize candidate replacements. *)

val cube_to_aig : Graph.t -> leaves:Graph.lit array -> Cube.t -> Graph.lit

val sop_to_aig : Graph.t -> leaves:Graph.lit array -> Cube.t list -> Graph.lit
(** Factored realization of a cube cover: recursively divides the cover
    by its most frequent literal, producing [l * quotient + remainder]
    structure instead of a flat two-level network. *)

val tt_to_aig : Graph.t -> leaves:Graph.lit array -> Tt.t -> Graph.lit
(** Builds the function from whichever of ISOP(f) / ISOP(not f) has the
    fewer literals, complementing the root in the latter case; for up
    to 3 variables the exact minimal tree from {!Exact} is used
    instead.  The truth table arity must equal [Array.length leaves]. *)

(** {1 Record and replay}

    [tt_to_aig]'s control flow depends only on the truth table, so the
    AND structure it builds for a function can be recorded once, on
    fresh PIs, and replayed onto any leaves through {!Graph.and_}.
    Replay folds constant, duplicate and complementary leaves and hits
    the structural hash exactly as a direct build would: it returns the
    same literal and creates the same nodes in the same order. *)

type cache
(** Recorded structures keyed by truth table (arity included).  Not
    thread-safe: a synthesis pass owns one for its own duration. *)

val create_cache : unit -> cache

val tt_to_aig_cached :
  cache -> Graph.t -> leaves:Graph.lit array -> Tt.t -> Graph.lit
(** Same result and side effects on the graph as {!tt_to_aig}; the
    structure for [f] is derived on its first use in [cache] and
    replayed afterwards. *)
