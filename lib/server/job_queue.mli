(** Bounded, mutex-guarded priority queue — the admission-control edge
    of the solve service.

    [push] never blocks: when the queue is at capacity it answers
    [false] and the caller rejects the request with a reason
    (backpressure by refusal, not by unbounded buffering — a server
    under heavy multi-user traffic must shed load at the edge rather
    than queue without bound).  [pop] blocks the calling worker until
    an item or {!close}.

    Ordering is highest priority first, FIFO within a priority (a
    monotone sequence number breaks ties), implemented as a binary
    heap over [(priority, seq)]. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current depth (racy by nature — a snapshot for metrics). *)

val push : 'a t -> priority:int -> 'a -> bool
(** Enqueue; [false] when the queue is full or closed. *)

val push_force : 'a t -> priority:int -> 'a -> bool
(** Enqueue past the admission bound (the backing heap grows);
    [false] only when the queue is closed.  Reserved for items whose
    population is bounded elsewhere — the engine's session scheduling
    tokens (at most one per live session) — so client-facing
    backpressure semantics of {!push} are unaffected. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some]) or the queue is closed
    {e and} drained ([None]).  Items still queued at {!close} time are
    delivered — close is a graceful drain, not an abandon. *)

val close : 'a t -> unit
(** Stop accepting pushes and wake every blocked popper. *)
