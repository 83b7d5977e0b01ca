(** The rebuild loop of the synthesis operators.

    Balance, rewrite, refactor and resub each rebuild the graph into a
    fresh builder in topological order, choosing a new literal for
    every old AND node they visit.  {!rebuild} is that loop; an
    operator supplies only its per-node choice.

    The loop is also where a stop is read: before each node it calls
    {!Aig.Interrupt.poll}, so an operator run inside
    {!Aig.Interrupt.within} a flag that gets set raises
    {!Aig.Interrupt.Stopped} within one node.  Outside a scope
    the poll never raises and the rebuild is exactly the unpolled
    one. *)

type t = private {
  src : Aig.Graph.t;  (** the graph being rebuilt *)
  dst : Aig.Graph.t;  (** the graph under construction *)
  map : Aig.Graph.lit array;
      (** [map.(id)]: the [dst] literal of [src] node [id]; set for the
          constant, the PIs and every node visited so far *)
}

val lit : t -> Aig.Graph.lit -> Aig.Graph.lit
(** [lit p l]: the [dst] literal of the [src] literal [l]. *)

val copy : t -> int -> Aig.Graph.lit
(** [copy p id]: the AND of [id]'s mapped fanins, built in [dst]. *)

val rebuild :
  ?select:(int -> bool) -> Aig.Graph.t -> (t -> int -> Aig.Graph.lit) ->
  Aig.Graph.t
(** [rebuild ?select g visit] creates [dst] with [g]'s inputs, applies
    [visit p] once (an operator's setup over the fresh [dst]), then
    sets [map.(id)] to [visit p id] for every AND node [id] of [g] in
    increasing id order for which [select id] holds (default: every
    node), polling for a stop before each.  It finally maps [g]'s
    outputs and returns [dst] swept by {!Aig.Graph.cleanup}.  A node
    that is not selected keeps the constant-false literal, so [select]
    must keep every node that a visited node or an output reads
    through [map].
    @raise Aig.Interrupt.Stopped as above. *)
