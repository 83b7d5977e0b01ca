(** Maximum fanout-free cones — the logic a node "owns": everything
    reachable from it whose every fanout stays inside the cone.  The
    MFFC is the budget a replacement candidate competes against in
    rewriting and refactoring. *)

val size_above_cut : Aig.Graph.t -> int array -> int -> int array -> int
(** [size_above_cut g refs id leaves]: MFFC node count of [id] bounded
    below by the cut [leaves] (ascending node ids); [refs] are the
    graph's reference counts. *)
