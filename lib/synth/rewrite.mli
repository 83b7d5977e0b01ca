(** DAG-aware cut rewriting (the [rewrite] operation, after Mishchenko,
    Chatterjee & Brayton, DAC'06).

    Rebuilds the AIG bottom-up; for every AND node it enumerates
    k-feasible cuts, synthesizes a factored-form candidate for each cut
    function (via ISOP + literal factoring) and keeps the candidate that
    materializes the fewest new nodes given everything already built —
    structural hashing supplies the sharing that makes replacements
    profitable.  Functionality is preserved by construction.

    Each candidate is built twice, once tentatively to count the nodes
    it adds and once for real when chosen, and a pass meets the same
    few hundred cut functions over and over.  So a pass derives each
    function's factored form once ({!Aig.Factor.tt_to_aig_cached}) and
    replays it onto every later cut; the output is node-for-node the one
    a fresh [Aig.Factor.tt_to_aig] per candidate would build.  The cache
    lives for one call, so passes on different domains share nothing. *)

val run :
  ?k:int -> ?cut_limit:int -> ?use_mffc:bool -> Aig.Graph.t -> Aig.Graph.t
(** [run g] returns a functionally equivalent AIG, usually smaller.
    [k] (default 4) is the cut width, 2..6; [cut_limit] (default 8) the
    number of cuts kept per node.  [use_mffc] (default true) credits a
    replacement with the maximum fanout-free cone it frees; disabling
    it reduces the pass to purely local (per-node) gain — the ablation
    of DESIGN.md. *)
