(** A write-once completion cell.

    Every asynchronous answer of the solve service travels through one
    of these: a one-shot job's result ({!Server.await},
    {!Server.on_answer}) and a session operation's answer
    ({!Server.Session.on_answer}).  The cell starts empty; the first
    {!fill} stores its value for good and wakes every waiter.

    {2 Completion contract}

    - {!fill} may be called from any domain, any number of times; the
      first call wins and answers [true], every later one answers
      [false] and leaves the value as it was.
    - {!await} blocks the calling domain until the cell is full; any
      number of domains may await one cell.
    - {!upon} on a full cell runs the callback at once, on the calling
      domain, before it returns.  On an empty cell it registers the
      callback, which then runs exactly once, on the domain whose
      {!fill} wins, after the value is visible to {!peek} and {!await}
      and with no lock of the cell held — so a callback may read or
      wait on the cell, or re-enter whatever filled it.  Callbacks run
      on the filler's hot path and must return quickly.  A raising
      callback is ignored: it does not stop the callbacks after it, nor
      the fill. *)

type 'a t

val create : unit -> 'a t
(** An empty cell. *)

val fill : 'a t -> 'a -> bool
(** Store the value if the cell is empty, wake the waiters and run the
    registered callbacks.  [true] when this call filled the cell. *)

val peek : 'a t -> 'a option
(** The value, if the cell is full.  Never blocks. *)

val await : 'a t -> 'a
(** Block until the cell is full, then answer its value. *)

val upon : 'a t -> ('a -> unit) -> unit
(** Run the callback once with the value: now if the cell is full,
    otherwise on the filling domain (see the contract above). *)
