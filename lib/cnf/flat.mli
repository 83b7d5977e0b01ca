(** Flat CSR clause store: the zero-copy ingest target.

    A CNF as two int arrays — [offsets] (one entry per clause plus a
    final end-sentinel) and [lits] (all DIMACS literals concatenated
    in clause order) — instead of {!Formula.t}'s array-of-arrays.
    Clause [i] occupies [lits.(offsets.(i)) .. lits.(offsets.(i+1)-1)].

    This is the shape the mmap DIMACS parser
    ({!Dimacs.read_flat_file}) emits without building any intermediate
    lists, the shape {!Fingerprint.of_flat} hashes streaming, and the
    shape [Sat.Solver.solve_flat] loads straight into its clause arena
    with zero per-clause allocation.  The representation is exposed
    (like {!Formula.t}) so those consumers can walk the arrays
    directly. *)

type t = {
  num_vars : int;
  offsets : int array;
      (** length [num_clauses + 1]; [offsets.(0) = 0], ascending;
          final entry is [Array.length lits] *)
  lits : int array;  (** DIMACS literals (non-zero), clause-major *)
}

val num_clauses : t -> int
val num_literals : t -> int
val clause_size : t -> int -> int

val validate : t -> unit
(** Check the CSR invariants and literal ranges.
    @raise Invalid_argument with the same messages as
    {!Formula.create} on out-of-range literals.  Parser output is
    already validated; use this for hand-built stores. *)

val of_formula : Formula.t -> t
val to_formula : t -> Formula.t

val eval : t -> bool array -> bool
(** Same contract as {!Formula.eval}: [assignment] has exactly
    [num_vars] entries, result is whether every clause is satisfied. *)

val sort_uniq_slice : int array -> int -> int -> int
(** [sort_uniq_slice a pos n] sorts [a.(pos) .. a.(pos+n-1)] in
    ascending order in place, moves the distinct values to the front of
    that range and returns how many there are (the rest of the range is
    left unspecified).  It does not allocate, and it costs O(n log n):
    the loaders normalize each clause with it, so one clause of k
    literals stays cheap at any k.
    @raise Invalid_argument if the range is not inside [a]. *)
