(** k-feasible cut enumeration with local functions.

    A cut of node [n] is a set of "leaf" nodes such that every path from
    a PI to [n] passes through a leaf.  Each cut carries the function of
    [n] in terms of its leaves as a truth table packed into an [int64]
    (so [k <= 6]).  Cuts are the common currency of the rewriter and the
    LUT mapper. *)

type cut = {
  leaves : int array;  (** node ids, strictly ascending *)
  tt : int64;          (** low [2^|leaves|] bits: function of the node *)
}

val trivial : int -> cut
(** The unit cut [{n}] with the identity function. *)

val cut_tt : cut -> Tt.t
(** Local function as a {!Tt.t} over [|leaves|] variables. *)

val expand_tt : int64 -> int array -> int array -> int64
(** [expand_tt tt leaves union] re-expresses [tt] (a function of
    [leaves]) over the superset [union]; both arrays ascending. *)

val dominates : cut -> cut -> bool
(** [dominates a b] when [a]'s leaves are a subset of [b]'s. *)

type sets
(** Per-node cut sets for a whole AIG. *)

val enumerate : Graph.t -> k:int -> limit:int -> sets
(** Bottom-up enumeration keeping at most [limit] nontrivial cuts per
    node (smallest first), plus the trivial cut.
    @raise Interrupt.Stopped within a node of a stop. *)

val cuts : sets -> int -> cut list
(** Cuts of a node (PIs have only the trivial cut). *)
