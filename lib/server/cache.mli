(** LRU caches keyed by canonical CNF fingerprint: verdicts (the main
    type below) and warm-start solver snapshots ({!Warm}).

    The verdict cache stores {e decisive} answers only — a [Sat] model
    or an [Unsat] verdict with the solving stats that produced it.
    Timeouts are never cached: they are a property of the job's
    deadline, not of the formula.  The {!Warm} cache is the
    complement: it keeps bounded {!Sat.Solver.seed} snapshots of
    solver {e state} (low-LBD learnt clauses, saved phases, activity
    order) for the solves that stopped undecided, so a resubmitted
    timed-out formula resumes instead of restarting.

    Keys are {!Cnf.Fingerprint.t}, so a resubmitted formula hits even
    when its clauses are permuted, duplicated or carry repeated
    literals (any formula with the same sorted-clause normal form —
    see {!Cnf.Fingerprint}).  The engine re-checks a cached model
    against the {e submitted} formula before serving it, so the
    ~128-bit fingerprint never silently serves a wrong model.

    All operations take one internal mutex: safe from any domain. *)

type verdict =
  | Sat of bool array  (** a verified model of the fingerprinted formula *)
  | Unsat

type entry = {
  verdict : verdict;
  stats : Sat.Solver.stats;  (** the original (cold) solve's stats *)
  solve_wall : float;        (** the original solve's wall seconds *)
}

type t

val create : capacity:int -> unit -> t
(** Capacity in entries; [capacity < 1] raises [Invalid_argument]. *)

val find : t -> Cnf.Fingerprint.t -> entry option
(** Lookup; a hit refreshes the entry's recency. *)

val add : t -> Cnf.Fingerprint.t -> entry -> unit
(** Insert (or overwrite), evicting the least-recently-used entry when
    at capacity. *)

val remove : t -> Cnf.Fingerprint.t -> unit
(** Drop an entry (used when a cached model fails re-verification —
    i.e. a detected fingerprint collision). *)

val length : t -> int

(** LRU of warm-start snapshots, same recency/eviction discipline and
    the same key type as the verdict cache.  The engine stores one for
    a fingerprint only when its solve answers [Timeout], and removes
    it when a later solve of the fingerprint decides or fails: a
    decided formula is answered by the verdict cache, so its snapshot
    would hold memory that is never read.  A snapshot is only sound
    to seed into a formula with the {e same} fingerprint (equal
    fingerprints mean equal model sets, so the captured clauses are
    implied); the engine guarantees this by construction — it looks
    snapshots up under the exact fingerprint of the submitted
    formula. *)
module Warm : sig
  type t

  val create : capacity:int -> unit -> t
  val find : t -> Cnf.Fingerprint.t -> Sat.Solver.seed option
  val add : t -> Cnf.Fingerprint.t -> Sat.Solver.seed -> unit
  val remove : t -> Cnf.Fingerprint.t -> unit
  val length : t -> int
end
