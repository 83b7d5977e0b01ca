(** The RL training environment of §3.2: states are netlist features +
    initial embedding, actions are synthesis operations, and the
    terminated reward is the reduction in SAT branching decisions of
    the LUT-mapped instance (Eq. 3).

    Solving happens under configurable limits so easy and hard training
    instances both produce rewards quickly; per-instance initial
    branching counts are cached across episodes. *)

type config = {
  max_steps : int;                    (** T, paper: 10 *)
  mapper : Lutmap.Mapper.config;
  embed : Deepgate.Embedding.config;
  reward_limits : Sat.Solver.limits;  (** caps for the reward solves *)
  normalize_reward : bool;
      (** divide (b0 - bT) by b0; keeps Q-targets in a stable range *)
  seed : int;
}

val default_config : config

val state_dim : config -> int

val make : config -> Aig.Graph.t array -> Rl.Dqn.env
(** An episodic environment over the given training instances; [reset]
    draws an instance uniformly.  @raise Invalid_argument on an empty
    instance array. *)

val branching_of : config -> Aig.Graph.t -> int
(** Decisions needed to solve the cost-customized-mapped encoding of a
    netlist — the quantity the reward differences. *)

val decisions_or_max : limits:Sat.Solver.limits -> Cnf.Formula.t -> int
(** The decision count of a solve under [limits], or the decision cap
    when the solve stopped at it — the reward's branching count. *)
