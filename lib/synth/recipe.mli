(** Logic-synthesis operations and recipes (sequences of operations).

    These are the actions of the RL agent (§3.2.3): [rewrite],
    [refactor], [balance], [resub] and the terminating [end]. *)

type op = Rewrite | Refactor | Balance | Resub | End

val all_ops : op list
(** In the fixed order used as the RL action space. *)

val num_actions : int

val op_of_index : int -> op
val index_of_op : op -> int
val op_to_string : op -> string
val op_of_string : string -> op option

val apply : op -> Aig.Graph.t -> Aig.Graph.t
(** Applies one operation ([End] is the identity).  Every operator runs
    {!Pass.rebuild}, so inside {!Aig.Interrupt.within} a set flag it
    raises {!Aig.Interrupt.Stopped} within one node. *)

val apply_sequence : op list -> Aig.Graph.t -> Aig.Graph.t
(** Applies operations left to right, stopping at the first [End]. *)

val parse : string -> (op list, string) Stdlib.result
(** Parses a semicolon- or comma-separated recipe, e.g.
    ["rewrite; balance; resub"]. *)

val to_string : op list -> string

val compress2 : op list
(** A fixed size-oriented script in the spirit of ABC's [compress2]:
    the baseline "synthesis for size" recipe used by the Eén 2007
    comparison. *)
