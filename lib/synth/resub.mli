(** Functional resubstitution by SAT sweeping (the [resub] operation).

    Replaces every node that is functionally equivalent (up to
    complement) to an already-built node with that existing "divisor" —
    0-resubstitution over the whole input space.  Candidates are found
    by random-simulation signatures and proven by an assumption query
    on one incremental CDCL session shared by the whole sweep; each
    query branches only on the variables of the two nodes' transitive
    fan-in cone, so it costs what its cone costs, not what the session
    holds.  Disproved candidates contribute counterexample patterns
    that refine the signatures.  This is the FRAIG construction of
    Mishchenko et al., and the workhorse that collapses equivalence-
    checking miters. *)

type config = {
  words : int;           (** 64-bit simulation words per node *)
  seed : int;
  conflict_limit : int;
      (** SAT conflict budget of the whole sweep: every proof runs on one
          incremental session, whose conflict count is cumulative, so
          once the sweep has made this many conflicts each later query
          that needs a decision answers unknown *)
}

val default_config : config

val run : ?config:config -> Aig.Graph.t -> Aig.Graph.t

val run_with_counts :
  ?config:config -> Aig.Graph.t -> Aig.Graph.t * int * int * int
(** {!run}, also returning the sweep's own counts: (the swept graph,
    candidates tried, proven equivalent, disproved).  A candidate that
    is neither proven nor disproved hit [conflict_limit]. *)
