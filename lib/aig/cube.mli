(** Cubes (product terms) over a fixed variable set.

    A cube is a conjunction of literals; variable [i] appears iff bit [i]
    of [mask] is set, with the polarity given by bit [i] of [pol]
    (1 = positive). *)

type t = { mask : int; pol : int }

val full : t
(** The empty product — the constant-true cube. *)

val num_literals : t -> int

val mem_pos : t -> int -> bool
val mem_neg : t -> int -> bool

val add_pos : t -> int -> t
val add_neg : t -> int -> t

val to_tt : int -> t -> Tt.t
(** [to_tt n c] is the characteristic function of [c] over [n] vars. *)

val literals : t -> (int * bool) list
(** [(var, positive)] pairs, ascending by variable. *)
