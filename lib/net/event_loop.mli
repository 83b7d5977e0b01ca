(** The socket front-end: one single-threaded [Unix.select] event
    loop multiplexing many concurrent TCP / Unix-domain / stdio
    connections over one shared {!Server} engine.

    {2 Architecture}

    The loop owns every connection ({!Conn.t}): it accepts, reads,
    frames ({!Framing}), parses ({!Server.Protocol.parse_request}),
    dispatches to the engine, renders answers and writes — all on one
    thread, so no per-connection state needs locking.  Solves
    themselves run on the engine's worker domains; completion flows
    back through {!Server.on_answer} / {!Server.Session.on_answer}
    callbacks that fill the connection's pending answer slot under the
    loop's completion mutex and wake the loop through a self-pipe.
    The loop never blocks on the engine and never blocks on a client:
    reads and writes are non-blocking, answers buffer per connection
    (bounded), and a slow client is first refused new work
    ([REJECTED overloaded] past half its buffer bound) and then
    disconnected (past the full bound).

    Each client observes its own answers in submission order —
    {!Conn.item} FIFOs make an early-resolving answer wait for the
    ones submitted before it — while different connections proceed
    independently.

    {2 Multi-tenancy}

    Connections start as the ["anon"] tenant and may declare a client
    id with [CLIENT <name>] (answered [HELLO <name>]).  A tenant's
    {!Tenant.limits} cap its in-flight engine commands across all of
    its connections ([REJECTED quota]) and floor its job priorities.
    Sessions are owned by the tenant that [OPEN]ed them; other tenants
    get [REJECTED not-owner].  Per-tenant request/answered/rejected
    counters land in {!Server.Metrics} and come back in STATS/METRICS
    JSON under ["clients"].

    [PING] ([PONG]) and [METRICS] answer {e out of band} — ahead of
    queued answers — so health probes work on a connection that is
    waiting on a long solve.

    {2 Drain}

    {!request_drain} (the SIGINT/SIGTERM path) closes the listeners,
    stops reading, drops commands that were buffered but never
    dispatched, finishes every dispatched command, flushes every
    buffer and lets {!run} return — zero in-flight answers are
    lost. *)

type config = {
  max_clients : int;
      (** accepted connections at once (default 256).  [Unix.select]
          cannot watch descriptors numbered past FD_SETSIZE (1024), so
          the effective bound is clamped at {!create} to the fd budget
          — FD_SETSIZE minus head room for the wake pipe, listeners,
          stdio and the process's other descriptors; see
          {!effective_max_clients}.  Surplus connections are answered
          [REJECTED overloaded] and closed. *)
  conn_buffer : int;
      (** per-connection write-buffer bound in bytes (default 4 MiB);
          half of it is the overload watermark *)
  max_line : int;      (** per-line input bound (default 1 MiB) *)
  default_limits : Tenant.limits;  (** limits of undeclared tenants *)
  tenant_limits : (string * Tenant.limits) list;
      (** per-tenant overrides, applied at startup *)
}

val default_config : config

type t

val create : ?config:config -> Server.t -> t
(** A loop bound to an engine.  Does not own the engine's lifecycle:
    the caller shuts it down after {!run} returns. *)

val add_tcp : t -> host:string -> port:int -> string * int
(** Bind and listen on [host:port]; [port = 0] picks a free port.
    Returns the bound address and port. *)

val add_unix : t -> string -> unit
(** Bind and listen on a Unix-domain socket path.  A stale socket
    file left by a dead server is replaced; any other existing file is
    an error.  The path is unlinked when the listener closes. *)

val add_pipe : t -> fd_in:Unix.file_descr -> fd_out:Unix.file_descr -> unit
(** Attach a read/write descriptor pair as one more connection — the
    [serve] pipe mode passes stdin/stdout and runs through the same
    loop, framing and dispatch as socket clients (unbounded
    out-buffer; the descriptors are not closed). *)

val request_drain : t -> unit
(** Begin graceful shutdown (async-signal safe: a flag and a self-pipe
    byte).  {!run} returns once every connection has drained. *)

val draining : t -> bool
val connections : t -> int

val effective_max_clients : t -> int
(** The connection bound actually enforced: [config.max_clients]
    clamped to the select fd budget (FD_SETSIZE = 1024 minus reserved
    head room).  A [--max-clients 100000] server therefore refuses its
    993rd concurrent connection instead of crashing the event loop the
    first time an accepted fd reaches 1024.  Independently of the
    count, any accepted descriptor numbered ≥ FD_SETSIZE is refused,
    and an accept failing with EMFILE/ENFILE sheds the pending
    connection gracefully through a sacrificial spare descriptor. *)

val run : t -> unit
(** Drive the loop until done: no listeners left (never added, or
    closed by drain) and no connections left.  With only a pipe
    attached this returns at its EOF/QUIT. *)
