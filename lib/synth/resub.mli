(** Functional resubstitution by SAT sweeping (the [resub] operation).

    Replaces every node that is functionally equivalent (up to
    complement) to an already-built node with that existing "divisor" —
    0-resubstitution over the whole input space.  Candidates are found
    by random-simulation signatures and proven by an assumption query
    on one incremental CDCL session shared by the whole sweep (no cone
    size limit); disproved candidates contribute counterexample
    patterns that refine the signatures.  This is the FRAIG construction
    of Mishchenko et al., and the workhorse that collapses equivalence-
    checking miters. *)

type config = {
  words : int;           (** 64-bit simulation words per node *)
  seed : int;
  conflict_limit : int;  (** SAT budget per equivalence proof *)
}

val default_config : config

val run : ?config:config -> Aig.Graph.t -> Aig.Graph.t

val stats_last_run : unit -> int * int * int
(** (candidates tried, proven equivalent, disproved) of the most recent
    {!run} — observability for tests and logs. *)
