(** Regeneration of every table and data-bearing figure of the paper's
    evaluation (the per-experiment index lives in DESIGN.md).

    Absolute numbers differ from the paper — the substrate is an OCaml
    CDCL solver on scaled-down generated workloads, not Kissat on
    proprietary 40k-gate industrial cases — so every table prints the
    paper's key reference values in its notes; what must match is the
    {e shape}: who wins, by roughly what factor, where the crossovers
    are. *)

type ctx = {
  scale : float;              (** workload size multiplier *)
  limits : Sat.Solver.limits; (** per-solve budget *)
  agent : Rl.Dqn.t option;    (** trained agent for the "ours" columns *)
  training_count : int;       (** Table 1 population size *)
  seed : int;
}

val default_ctx : ctx
(** scale 1.0, 120 s solve cap, no agent (fixed expert recipe),
    40 training instances. *)

val train_agent : ?episodes:int -> ctx -> Rl.Dqn.t
(** Train an agent on the (scaled) training set; plug the result into
    [ctx.agent] for the RL-driven columns. *)

val table1 : ctx -> Table.t
(** Training-set statistics. *)

val table2 : ctx -> Table.t
(** Characteristics of the testing cases I1-I5, C1-C8. *)

val table3 : ctx -> Table.t
(** Solving-time comparison on LEC cases: Baseline / [15] / Ours. *)

val table4 : ctx -> Table.t
(** Ablation: with vs. without the RL agent. *)

val table5 : ctx -> Table.t
(** Ablation: conventional vs. cost-customized mapper. *)

val table6 : ctx -> Table.t
(** Solving-time comparison on SAT-competition-style CNFs. *)

val table7 : ctx -> Table.t
(** Circuit size before and after preprocessing (gates/level vs
    LUTs/level). *)

val figure2 : unit -> Table.t
(** The rewrite and balance illustrative examples (size / depth
    deltas). *)

val figure4 : unit -> Table.t
(** Branching complexity of 2-input LUTs (AND = 3, XOR = 4) and the
    4-input extremes. *)

val table : ctx -> int -> Table.t
(** [table ctx n] is [tableN ctx]; fails outside 1..7. *)

val figure : int -> Table.t
(** [figure n] is [figureN ()]; fails unless [n] is 2 or 4. *)

val run_all : ctx -> string
(** Every table and figure rendered, sharing pipeline runs between
    Tables 3-5 and 7. *)
