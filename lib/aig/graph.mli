(** Structurally hashed And-Inverter Graphs.

    An AIG represents arbitrary combinational logic with two-input AND
    gates and complemented edges.  Nodes are numbered densely: node [0] is
    the constant-false node, nodes [1 .. num_pis] are primary inputs and
    the remaining nodes are AND gates.  A {e literal} packs a node id and
    a complement bit as [2 * id + sign], following the AIGER convention,
    so literal [0] is constant false and literal [1] constant true.

    The builder maintains the invariant that both fanins of an AND node
    have smaller ids than the node itself; iterating nodes by increasing
    id is therefore always a topological order. *)

type lit = int
(** A literal: [2 * node_id + complement]. *)

type t
(** A mutable AIG under construction (and the final representation). *)

(** {1 Literals} *)

val lit_of_node : int -> bool -> lit
(** [lit_of_node id compl] packs a node id and complement flag. *)

val node_of_lit : lit -> int
val is_compl : lit -> bool
val lit_not : lit -> lit
val lit_not_cond : lit -> bool -> lit
(** [lit_not_cond l c] complements [l] iff [c]. *)

val const_false : lit
val const_true : lit

(** {1 Construction} *)

val create : num_pis:int -> t
(** [create ~num_pis] returns an AIG with [num_pis] primary inputs and no
    AND nodes or outputs. *)

val pi : t -> int -> lit
(** [pi g i] is the literal of the [i]-th primary input, [0 <= i <
    num_pis g].  @raise Invalid_argument otherwise. *)

val and_ : t -> lit -> lit -> lit
(** [and_ g a b] returns a literal for the conjunction of [a] and [b],
    applying constant propagation, trivial-case simplification
    ([a = b], [a = not b]) and structural hashing. *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux_ : t -> lit -> lit -> lit -> lit
(** [mux_ g sel t e] is [if sel then t else e]. *)

val and_list : t -> lit list -> lit
(** Balanced conjunction of a list of literals ([const_true] if empty). *)

val or_list : t -> lit list -> lit

val add_po : t -> lit -> unit
(** Append a primary output. *)

val set_po : t -> int -> lit -> unit
(** [set_po g i l] replaces the [i]-th output. *)

(** {1 Access} *)

val num_pis : t -> int
val num_pos : t -> int
val num_ands : t -> int
val num_nodes : t -> int
(** Total nodes including the constant node and PIs. *)

val po : t -> int -> lit
val pos : t -> lit array
val fanin0 : t -> int -> lit
(** Fanin literals of an AND node.  @raise Invalid_argument on a PI or
    the constant node. *)

val fanin1 : t -> int -> lit
val is_and : t -> int -> bool
val is_pi : t -> int -> bool

val iter_ands : t -> (int -> unit) -> unit
(** Iterate AND node ids in topological (increasing-id) order. *)

(** {1 Derived information} *)

val levels : t -> int array
(** Per-node logic level: PIs and the constant node are level 0, an AND
    is one more than the maximum of its fanins. *)

val depth : t -> int
(** Maximum level over the primary outputs (0 for a constant-only AIG). *)

val ref_counts : t -> int array
(** Per-node fanout count, counting PO references. *)

val num_inverted_edges : t -> int
(** Number of complemented AND fanin edges plus complemented POs — the
    AIG analogue of "NOT gate" count. *)

(** {1 Checkpointing}

    Rewriting tentatively builds candidate subgraphs and rolls them back
    when they are not beneficial. *)

type mark

val mark : t -> mark
val nodes_since : t -> mark -> int
(** Number of AND nodes created since the mark. *)

val rollback : t -> mark -> unit
(** Remove every node created since the mark (their strash entries
    included).  Behaviour is undefined if such nodes are referenced by
    later-surviving structure, so callers must roll back before using
    any literal created after the mark. *)

(** {1 Whole-graph operations} *)

val copy : t -> t

val reachable : t -> bool array
(** [(reachable g).(id)] holds iff node [id] is in the transitive fan-in
    of some output (an output's own node included).  The walk keeps an
    explicit stack, so arbitrarily deep graphs are fine. *)

val cleanup : t -> t
(** Rebuild the AIG keeping only nodes reachable from the outputs (a
    "sweep"); PIs are preserved, node ids are renumbered compactly. *)

val equal_structure : t -> t -> bool
(** Structural identity (same nodes, fanins and outputs) — not
    functional equivalence. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: pis/pos/ands/depth. *)
