(** DRAT proof logging and checking.

    When given a recorder, the solver logs every learned clause
    (addition) and every removed learned clause (deletion) in DIMACS
    literals; an unsatisfiability result ends with the empty clause.
    {!check} replays the proof against the original formula with a
    reverse-unit-propagation (RUP) test per addition — CDCL learned
    clauses are always RUP, so this validates our solver's refutations
    end-to-end.

    Recorders are safe to share across domains: [add] and [delete] are
    serialized by an internal mutex, so the {e portfolio} can let every
    racing worker append into one recorder.  Such a merged log stays
    RUP-checkable because RUP is monotone in the clause database (an
    addition that unit-propagates to conflict against a subset of the
    accumulated clauses still does against the whole set), every worker
    logs its own learned clauses in learn order, and a clause is always
    logged before it is exported to — and hence imported by — another
    worker.  Two provisions make the merged log well-formed:

    - the recorder {e seals} itself when the empty clause is added:
      later additions and deletions are dropped, so losing workers that
      keep racing for a few more ticks cannot log past the refutation;
    - a recorder created with [~record_deletions:false] ignores
      deletions, because worker A may delete a clause that worker B
      imported and still depends on. *)

type step = Add of int array | Delete of int array

type t

val create : ?record_deletions:bool -> unit -> t
(** A fresh recorder.  [record_deletions] defaults to [true]; pass
    [false] for a portfolio-shared recorder (see above). *)

val add : t -> int array -> unit
val delete : t -> int array -> unit

val sealed : t -> bool
(** The empty clause has been added: the refutation is complete and
    the recorder drops any further steps. *)

val replay : into:t -> t -> unit
(** Append every step of a recorder into another (subject to the
    destination's own deletion-recording and sealing rules). *)

val steps : t -> step list
(** In emission order. *)

val num_steps : t -> int

val to_string : t -> string
(** Standard DRAT text ("d" prefix for deletions, 0-terminated). *)

val of_string : string -> t
(** @raise Failure on malformed input. *)

val check : Cnf.Formula.t -> t -> bool
(** [check f proof] replays the proof: every added clause must be RUP
    with respect to the current clause database, deletions must refer
    to present clauses, and the proof must end having derived (or
    added) the empty clause.  Intended for validation at test sizes —
    the propagation is simple and unoptimized. *)
