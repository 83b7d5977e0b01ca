(** Priority-cut k-LUT technology mapping.

    Classic two-phase mapper: a delay-optimal pass assigns every node
    its minimum-depth cut, a backward pass derives required times, and
    area-recovery passes re-select cuts minimizing {e area flow} under
    the delay constraint — where "area" of a cut is supplied by a
    {!Cost.t}, so the same engine yields the conventional
    (LUT-count-minimizing) mapper and the paper's cost-customized
    (branching-complexity-minimizing) mapper. *)

type config = {
  k : int;              (** LUT input count, 2..6 (paper uses 4) *)
  cut_limit : int;      (** priority cuts kept per node *)
  area_passes : int;    (** area-flow recovery iterations *)
  cost : Cost.t;
}

val default_config : config
(** k = 4, 8 cuts, 2 area passes, conventional cost. *)

val cost_customized_config : config
(** Same shape but with the branching-complexity cost. *)

val run : ?config:config -> Aig.Graph.t -> Netlist.t
(** Maps the AIG into a LUT netlist computing the same outputs.
    @raise Aig.Interrupt.Stopped within a node of a stop. *)

val total_cost : Cost.t -> Netlist.t -> int
(** Sum of the cost metric over all LUTs of a netlist. *)
