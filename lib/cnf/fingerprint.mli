(** Canonical CNF fingerprints for result caching.

    The solve service ({!Server} in [lib/server]) keys its verdict
    cache and its warm cache by formula {e content}, so a resubmitted
    instance — or the same instance under a different file name, with
    its clauses in a different order, or with duplicated literals —
    hits the cache instead of re-solving.  Two formulas receive equal
    fingerprints exactly when they have the same {e normal form}:

    - within each clause, duplicate literals are removed;
    - tautological clauses (containing both [l] and [-l]) are dropped;
    - the clauses are taken as a set: order and repeats do not count;
    - [num_vars] is part of the normal form.

    Equal normal forms have {e identical model sets} over their
    (equal) variable ranges: every transformation above preserves the
    formula's models, not merely satisfiability.  A cached [Sat] model
    for one formula therefore satisfies any other formula with the
    same fingerprint.

    {b How it is built.}  Each clause is normalized in per-domain
    scratch: its literals are keyed [2|l| + sign], sorted (insertion
    sort for short clauses, heap sort for long ones, so one clause of
    k literals costs O(k log k)) and deduplicated, and a tautology
    shows up as two adjacent keys of one variable.  Each kept clause is
    hashed into two independent 63-bit words by native-int
    multiply/xor-shift mixing.  Duplicate clauses are dropped exactly,
    through an open-addressed table keyed by the first word that
    compares literals when two words match.  The distinct clauses are
    combined by a sum of a second mix of each clause word, one sum per
    lane, so clause order cannot matter and no sort of the clause set
    is needed; [num_vars] is mixed in last.  The result is two 63-bit
    lanes, stored as [int64], plus the exact variable and distinct
    clause counts.  A steady stream of formulas of similar size
    allocates nothing but the result.

    {b Not a secure hash.}  The fingerprint is unkeyed and not
    cryptographic, like the FNV-1a hash it replaced.  An accidental
    collision needs ~126 matching bits, but a crafted one is feasible,
    and it would make the cache serve one formula's [Unsat] verdict for
    another, or warm-start one formula with another's learnt clauses.
    A [Sat] hit is re-checked with {!Flat.eval} before it is served,
    so a collision there is caught rather than answered. *)

type t = {
  h1 : int64;  (** first 63-bit lane, sign-extended *)
  h2 : int64;  (** second lane, independent constants *)
  num_vars : int;
  num_clauses : int;  (** clauses in the {e normal form} (after
                          dropping tautologies and duplicates) *)
}

val of_flat : Flat.t -> t
(** Fingerprint a flat CSR store (a {!Formula.t} goes through
    {!Flat.of_formula} first).  Cost is one sort per clause plus a
    constant-time table probe per clause: linear in the literal count
    for short clauses, O(k log k) for a clause of k literals.  Safe to
    call from several domains at once. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A [Hashtbl]-compatible hash (folds [h1]). *)

val to_hex : t -> string
(** 32 hex digits: [h1] then [h2] — stable across runs, suitable for
    logs and the serve protocol's [c fingerprint=...] comments. *)
