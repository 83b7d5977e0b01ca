(** Level-0 XOR reasoning: recover the parity constraints a CNF encodes
    as complete clause sets, eliminate them over GF(2), and report what
    the elimination proves.

    A width-[k] constraint [x1 ⊕ … ⊕ xk = r] reaches a CNF solver as
    the [2^(k-1)] clauses over [x1 … xk] that forbid the assignments of
    the other parity.  A {!t} is fed every normalized clause of the
    formula (the solver's loader offers each one as it loads it), groups
    the clauses of width 1–{!max_width} by their variable set, and keeps
    per group one bit per sign pattern seen, so a group of width 2 or
    more whose patterns of one parity are all present is an XOR.
    {!eliminate} then runs Gauss–Jordan elimination on those XORs, with
    the unit clauses over their variables as rows of width 1, and
    returns the rows of width at most 2 — units and binary equivalences
    — that the formula does not already hold as clauses.  Longer rows
    are dropped: this is unit and equivalence extraction before search,
    not Gaussian elimination inside it.

    The module lives with the CNF substrate so that there is one
    detector: the solver's loader ([Sat.Solver]) feeds it while
    loading, and {!Cnf2aig} uses it to turn the XOR constraints of a
    formula into circuit outputs.  A circuit mapped from those outputs
    re-encodes each asserted parity LUT as a complete clause set plus
    a unit clause on its output, and the unit rows are what let
    elimination combine such XORs.

    Literals offered to {!add} use the solver's internal encoding
    (variable [v], 0-based, gives [2v] positive and [2v + 1] negative);
    everything returned uses DIMACS literals. *)

type t

val max_width : int
(** 6: wider clauses are not offered ([add] ignores them). *)

val local : int -> t
(** [local n] is the calling domain's collector, emptied, with room
    for [n] clauses.  Its tables stay with the domain between calls
    while they hold at most 65536 clauses (4 MB), so loading a stream
    of such formulas allocates nothing.  Valid until the next [local]
    on the same domain. *)

val add : t -> int array -> int -> unit
(** [add g b n] offers the clause [b.(0) … b.(n - 1)]: internal
    literals, sorted ascending, without duplicates and without a
    complementary pair.  Clauses wider than {!max_width} are ignored.
    Allocation-free within the room reserved; past it the tables
    double. *)

val add_clause : t -> int array -> unit
(** [add_clause g c] offers the DIMACS clause [c] after normalizing it
    the way the solver's loader does: duplicate literals merged,
    tautologies dropped.  Allocation-free within the room reserved. *)

val of_flat : Flat.t -> t
(** A collector fed every clause of a store, each normalized the way
    the solver's loader normalizes it (duplicate literals merged,
    tautologies dropped). *)

val count : t -> int
(** XOR constraints found so far: complete parity classes of width
    2–{!max_width}.  A variable set whose clauses cover both parities
    counts twice (and is contradictory). *)

val xors : t -> (int array * bool) list
(** The XORs found, as (ascending DIMACS variables, right-hand side),
    in the order their variable sets were first seen. *)

type outcome =
  | Inconsistent  (** the XORs have no common solution *)
  | Derived of int array list
      (** DIMACS clauses of width 1 or 2 implied by the XORs and unit
          clauses and absent from the input; empty when fewer than two
          XORs were found or the matrix exceeds a bound *)

val eliminate : t -> outcome
(** Gauss–Jordan elimination over the XORs found: one row per XOR and
    one per unit clause over a variable that occurs in them, one column
    per such variable, 63 columns to a word.  Units count as rows only,
    never in {!count} or {!xors}.  Two fixed bounds skip it (the outcome is then [Derived []]): a matrix of more
    than [2^22] words ([rows × ⌈columns / 63⌉]), or more than [2^26]
    word operations ([rows × ⌈columns / 63⌉ × min rows columns]). *)
