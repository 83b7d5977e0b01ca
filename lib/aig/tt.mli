(** Bit-parallel truth tables for functions of up to 16 variables.

    A table over [n] variables stores [2^n] function values packed into
    64-bit words.  Variable [i] toggles with period [2^i] in the usual
    minterm ordering. *)

type t

val num_vars : t -> int

val create_const : int -> bool -> t
(** [create_const n v] is the constant-[v] function of [n] variables. *)

val var : int -> int -> t
(** [var n i] is the projection onto variable [i] among [n] variables. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor_ : t -> t -> t

val equal : t -> t -> bool
val is_const_false : t -> bool
val is_const_true : t -> bool

val get_bit : t -> int -> bool
(** [get_bit t m] is the function value on minterm [m]. *)

val set_bit : t -> int -> bool -> t
(** Functional update of one minterm. *)

val count_ones : t -> int

val cofactor : t -> int -> bool -> t
(** [cofactor t i v] fixes variable [i] to [v]; the result still ranges
    over [n] variables but no longer depends on variable [i]. *)

val depends_on : t -> int -> bool
(** Whether the function actually depends on variable [i]. *)

val support : t -> int list
(** Variables the function depends on, ascending. *)

val expand : t -> int -> int array -> t
(** [expand t n' perm] re-expresses [t] over [n'] variables where old
    variable [i] becomes new variable [perm.(i)].  Used to lift cut-local
    functions onto a merged leaf set. *)

val permute : t -> int array -> t
(** [permute t perm] renames variables within the same arity. *)

val flip : t -> int -> t
(** [flip t i] complements variable [i]. *)

val swap_adjacent : t -> int -> t
(** [swap_adjacent t i] exchanges variables [i] and [i+1]. *)

val word_mask : int -> int64
(** [word_mask n] has the low [2^n] bits set for [n < 6] and all 64 bits
    for [n >= 6]: the minterms of an [n]-variable table within one
    word. *)

val of_int64 : int -> int64 -> t
(** [of_int64 n bits] builds an [n]-variable table (n <= 6) from the
    low [2^n] bits of [bits]; at [n = 6] every bit counts. *)

val of_int : int -> int -> t
(** [of_int n bits] builds an [n]-variable table (n <= 6) from the low
    [2^n] bits of [bits]. *)

val to_int : t -> int
(** Inverse of {!of_int} for n <= 6.  @raise Invalid_argument above 6. *)

val to_hex : t -> string

val hash : t -> int

val pp : Format.formatter -> t -> unit
