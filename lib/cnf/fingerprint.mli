(** Canonical CNF fingerprints for result caching.

    The solve service ({!Server} in [lib/server]) keys its result
    cache by formula {e content}, so a resubmitted instance — or the
    same instance under a different file name, with its clauses in a
    different order, or with duplicated literals — hits the cache
    instead of re-solving.  Two formulas receive equal fingerprints
    exactly when they have the same {e sorted-clause normal form}:

    - within each clause, duplicate literals are removed and the
      remaining literals sorted;
    - tautological clauses (containing both [l] and [-l]) are dropped;
    - the clause multiset is deduplicated and sorted lexicographically;
    - [num_vars] is part of the normal form.

    Equal normal forms have {e identical model sets} over their
    (equal) variable ranges: every transformation above preserves the
    formula's models, not merely satisfiability.  A cached [Sat] model
    for one formula therefore satisfies any other formula with the
    same fingerprint — the cache re-checks this with
    {!Formula.eval} before serving a hit, making a hash collision
    detectable rather than silently wrong.

    The fingerprint itself is two independent 64-bit FNV-1a hashes of
    the normal form (plus the variable/clause counts, compared
    exactly), so an accidental collision needs ~128 matching bits;
    the normal form is hashed streaming and never retained. *)

type t = {
  h1 : int64;  (** FNV-1a over the normal-form literal stream *)
  h2 : int64;  (** same stream, independent offset/prime *)
  num_vars : int;
  num_clauses : int;  (** clauses in the {e normal form} (after
                          dropping tautologies and duplicates) *)
}

val of_flat : Flat.t -> t
(** Fingerprint a flat CSR store (a {!Formula.t} goes through
    {!Flat.of_formula} first).  Cost is one sort of the clause index
    plus a sort per clause — linearithmic in the literal count; the
    normal form is built in two flat scratch arrays, not a clause
    list. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A [Hashtbl]-compatible hash (folds [h1]). *)

val to_hex : t -> string
(** 32 hex digits: [h1] then [h2] — stable across runs, suitable for
    logs and the serve protocol's [c fingerprint=...] comments. *)

val pp : Format.formatter -> t -> unit
