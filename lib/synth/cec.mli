(** Combinational equivalence checking.

    The staged industrial flow: random simulation to find cheap
    counterexamples, FRAIG sweeping to collapse internal equivalences,
    and a final SAT call on the remaining miter.  This is both a user
    feature (the [lec_pipeline] example and CLI use it) and the
    ground-truth oracle the test-suite leans on. *)

type verdict =
  | Equivalent
  | Different of bool array  (** distinguishing input assignment *)
  | Unknown                  (** resource limit exceeded *)

type config = {
  sim_words : int;
  seed : int;
  use_fraig : bool;
  solver_limits : Sat.Solver.limits;
}

val default_config : config

val miter : Aig.Graph.t -> Aig.Graph.t -> Aig.Graph.t
(** Single-output miter over shared PIs: the OR of the pairwise output
    XORs, every node of both circuits copied in id order.
    @raise Invalid_argument on a PI or PO count mismatch. *)

val check : ?config:config -> Aig.Graph.t -> Aig.Graph.t -> verdict
(** [check a b] compares two circuits with identical PI/PO counts.
    @raise Invalid_argument on an interface mismatch. *)

val verdict_to_string : verdict -> string
