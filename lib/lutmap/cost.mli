(** LUT cost metrics (§3.3.1).

    The paper defines the {e branching complexity} of a LUT by example:
    a 2-input AND has C = 3 and a 2-input XOR has C = 4 — the number of
    distinct branch choices a SAT solver faces across both output
    values.  The reading consistent with both examples is the number of
    prime implicants of the on-set plus the off-set, which is what
    {!branching} computes (via ISOP covers).  The conventional mapper
    charges every LUT the same area. *)

type t = Aig.Tt.t -> int

val conventional : t
(** Constant 1 per LUT: minimizes LUT count (area). *)

val branching : t
(** [|ISOP(f)| + |ISOP(not f)|], memoized for up to 4 variables.  AND2
    costs 3, XOR2 costs 4, matching Figure 4 of the paper. *)

val table_for_arity : int -> (int * int) list
(** [(function, cost)] for every function of the given arity (<= 4,
    NPN representatives only) — the precomputed "costs of all 4-input
    LUTs" of §3.3. *)
