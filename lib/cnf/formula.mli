(** CNF formulas in DIMACS literal convention.

    A literal is a nonzero integer; positive means the variable, negative
    its complement.  Variables are numbered from 1. *)

type t = {
  num_vars : int;
  clauses : int array array;
}

val create : num_vars:int -> int array list -> t
(** Validates every literal is nonzero with |lit| <= num_vars.
    @raise Invalid_argument otherwise. *)

val num_clauses : t -> int
val num_literals : t -> int

val add_clauses : t -> int array list -> t

val eval : t -> bool array -> bool
(** [eval f assignment] with [assignment.(v - 1)] the value of variable
    [v]. *)

val is_trivially_unsat : t -> bool
(** Contains an empty clause. *)

val map_vars : t -> f:(int -> int) -> num_vars:int -> t
(** Renames variables ([f] acts on variable indices, preserving sign). *)
