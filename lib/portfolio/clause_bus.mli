(** Learnt-clause exchange between portfolio workers.

    One mutex-guarded inbox per lane.  A sharing lane publishing a
    clause places a {e fresh copy} of it into the inbox of every other
    sharing lane — receivers never alias the publisher's
    array (which may be a buffer the publisher reuses) or each other's;
    each lane drains its own inbox at its solver's import points
    (restarts).  Inboxes are bounded: beyond {!capacity}
    pending clauses the newest publication is dropped and counted,
    so a fast exporter cannot make a slow importer's queue grow
    without bound. *)

type t

val capacity : int
(** Maximum pending clauses per inbox (drops are counted, not fatal). *)

val create : sharing:bool array -> t
(** One slot per lane; [sharing.(i)] says whether lane [i] exchanges
    clauses.  A sharing race marks exactly the lanes without a
    {!Strategy.t.prepare} step: only they solve the input formula
    itself. *)

val publish : t -> worker:int -> int array -> int -> unit
(** [publish bus ~worker clause lbd] offers [clause] (DIMACS literals,
    with its glue value) to every other sharing lane.  Each receiver
    gets its own copy, so the caller remains free to mutate or reuse
    [clause] afterwards.  No-op for a lane that does not share. *)

val drain : t -> worker:int -> (int array * int) list
(** Remove and return lane [worker]'s pending clauses, oldest first. *)

val published : t -> int
(** Clauses accepted from exporters (before per-inbox fan-out). *)

val delivered : t -> int
(** Clause deliveries into inboxes (once per receiving lane). *)

val dropped : t -> int
(** Deliveries refused because an inbox was full. *)
