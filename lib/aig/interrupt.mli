(** Cooperative cancellation, after minisat's [interrupt] /
    [clearInterrupt]: one flag, read inside the work loop of every
    layer.  Any domain may {!set} a flag while work runs on another;
    nothing below clears it, and {!clear} re-arms it for reuse.

    Work reads its flag through the calling domain's stop scope, never
    an argument: inside [within t f], {!poll} raises {!Stopped} once
    [t] is set (cnf2aig, the synthesis operators, the LUT mapper and
    the encoder poll once per clause, node or LUT), and a solve reads
    {!current} at entry and returns [Unknown] within one conflict or
    decision of the set.  Outside every scope nothing stops, and a
    spawned domain starts outside every scope.  A poll is one
    domain-local read and one [Atomic.get]; it allocates nothing. *)

type t

val create : unit -> t
val set : t -> unit
val clear : t -> unit
val is_set : t -> bool

exception Stopped

val within : t -> (unit -> 'a) -> 'a
(** [within t f] runs [f ()] with [t] as this domain's flag and
    restores the enclosing scope when [f] returns or raises. *)

val current : unit -> t option
(** The flag of this domain's innermost {!within}; [None] outside
    every scope. *)

val poll : unit -> unit
(** @raise Stopped if the flag of this domain's innermost {!within}
    is set. *)
