(** Netlist statistics and the RL state features of the paper (§3.2.2).

    "Gates" follow the paper's AIG accounting: AND gates are the AND
    nodes, NOT gates are the complemented edges. *)

type snapshot = {
  area : int;        (** number of AND nodes *)
  depth : int;       (** logic depth *)
  wires : int;       (** fanin edges plus PO edges *)
  ands : int;
  nots : int;        (** complemented edges *)
  pis : int;
  balance : float;   (** average balance ratio, Eq. (1) *)
}

val snapshot : Graph.t -> snapshot

val balance_ratio : Graph.t -> float
(** Average over AND nodes of |d(p1) - d(p2)| / max(d(p1), d(p2)),
    terms with both predecessors at depth 0 contributing 0. *)

val features : initial:snapshot -> Graph.t -> float array
(** The six-dimensional state feature vector of §3.2.2: area, depth and
    wire ratios w.r.t. the initial snapshot, AND and NOT proportions,
    and the balance ratio. *)
