(** Per-connection state of the socket front-end.

    A connection is a passive record driven entirely by
    {!Event_loop}: the loop thread reads, parses, dispatches and
    writes; worker domains only ever touch one field — a {!pending}
    item's [lines], under the loop's completion mutex.

    {2 Ordered answers}

    [items] is the connection's answer FIFO: dispatch pushes one item
    per command in submission order, and the loop renders items
    head-first into [out] — a later answer that resolves early waits
    in its [Pending] slot until everything before it is rendered, so
    each client observes its own answers in the order it asked,
    whatever the engine's completion order.  [Stats_here] and
    [Sync_here] are barriers by construction: they render only once
    every earlier item has.

    {2 Backpressure}

    [out] is bounded by [max_out] (0 = unbounded, used for pipes).
    Past [max_out/2] the connection is {e overloaded}: new commands
    answer [REJECTED overloaded] instead of reaching the engine.  Past
    [max_out] the peer has stopped reading for good and the loop
    disconnects it — the event loop never blocks on a slow client. *)

type pending = { mutable lines : string list option }
(** An answer slot filled asynchronously by an engine completion
    callback.  Written and read under the event loop's completion
    mutex. *)

type item =
  | Lines of string list  (** renderable immediately *)
  | Pending of pending    (** waits for its callback at the head *)
  | Stats_here            (** render the stats snapshot at the head *)
  | Sync_here             (** emit [c sync], unblock command intake *)

type t = {
  id : int;
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;   (** = [fd_in] for sockets *)
  owns_fds : bool;            (** close on disconnect (false for pipes) *)
  peer : string;              (** human-readable peer, for log lines *)
  framing : Framing.t;
  items : item Queue.t;       (** the per-connection answer FIFO *)
  mutable lines_pending : string list;
      (** parsed commands not yet dispatched (held back by [blocked]) *)
  mutable blocked : bool;     (** a [Sync_here] gates command intake *)
  mutable eof : bool;         (** stop reading (EOF, QUIT or drain) *)
  mutable closed : bool;      (** fully disconnected; skip everywhere *)
  out : Buffer.t;             (** bytes owed to the peer *)
  mutable out_off : int;      (** already-written prefix of [out] *)
  max_out : int;              (** write-buffer bound; 0 = unbounded *)
  mutable tenant : Tenant.tenant;
  mutable seq : int;          (** per-connection command sequence *)
}

val create :
  id:int ->
  fd_in:Unix.file_descr ->
  fd_out:Unix.file_descr ->
  owns_fds:bool ->
  peer:string ->
  max_out:int ->
  max_line:int ->
  tenant:Tenant.tenant ->
  t

val pending_out : t -> int
(** Bytes buffered and not yet written to the peer. *)

val append_lines : t -> string list -> unit
(** Append newline-terminated lines to the out buffer. *)

val try_write : t -> [ `Ok | `Peer_gone ]
(** Flush as much of [out] as the kernel accepts without blocking.
    [`Peer_gone] (EPIPE/ECONNRESET) means the caller must drop the
    connection. *)

val overloaded : t -> bool
(** Past the soft watermark ([max_out/2]): reject new commands. *)

val over_hard_limit : t -> bool
(** Past [max_out]: disconnect the slow reader. *)
