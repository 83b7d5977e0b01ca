(** The `eda4sat serve` wire protocol: a line-oriented request stream
    with pipelined answers.

    {2 One-shot requests} (one per line, whitespace-separated)

    - [SOLVE <file> [deadline_ms] [prio]] — submit the DIMACS (or
      [.aag] AIGER) file.  [deadline_ms] bounds the job's wall clock
      (a negative or NaN value answers [REJECTED bad-deadline]);
      [prio] (integer, higher first) orders admission.
    - [STATS] — emit the metrics snapshot as one JSON line, computed
      {e after} every earlier request has been answered.
    - [SYNC] — barrier: block the request stream until every earlier
      answer has been printed (emits [c sync]).  A scripted session
      uses it to guarantee a later duplicate is a cache hit rather
      than an in-flight join.
    - [QUIT] — drain pending answers and return.  EOF does the same,
      including for a final command without a trailing newline.
    - empty lines and lines starting with [c] or [#] are ignored.

    {2 Session requests}

    - [OPEN] — allocate an incremental session; answers [OPENED <sid>]
      (or [REJECTED] when the session table is full).
    - [ADD <sid> <lits...>] — append 0-terminated clauses, DIMACS
      style: [ADD 0 1 2 0 -1 3 0].
    - [ASSUME <sid> <lits...>] — assumption literals for the next
      solve of the session (optional trailing 0).
    - [SOLVE <sid> [deadline_ms]] — solve the session's accumulated
      clauses under the pending assumptions.  A first operand that is
      all digits addresses a session; name files with a path prefix
      ("./42") to disambiguate.
    - [PUSH <sid>] / [POP <sid>] — open / retire an activation frame
      (clauses added under the frame retire with it).
    - [CLOSE <sid>] — close the session; later ops on the id answer
      [FAILED session closed].

    {2 Answers}

    Requests are submitted as they are read — the engine solves them
    concurrently — but answers are printed in request order.  One-shot
    answers are

    {[
    c job <seq> file=<file> source=<solved|cache|join> wall_ms=<w> solve_ms=<s> fingerprint=<hex>
    SAT            (followed by a DIMACS "v ... 0" model line)
    UNSAT
    TIMEOUT
    REJECTED <reason>
    ERROR <message>
    ]}

    and session answers

    {[
    c session <sid> job <seq> op=<verb> wall_ms=<w> solve_ms=<s>
    OK                          (ADD / ASSUME / PUSH / POP / CLOSE)
    SAT                         (followed by a "v ... 0" model line)
    UNSAT                       (followed by "c core <lits> 0", the
                                 failed-assumption core)
    TIMEOUT
    EVICTED                     (the session was LRU/TTL-evicted)
    FAILED <message>
    ]}

    [REJECTED] is the admission-control answer (queue full, bad
    deadline, unknown session, server stopping); [ERROR] covers
    unreadable files and malformed requests.  SAT models are verified
    by the engine against the submitted formula (one-shot) or the
    session's live clauses before being printed — cached answers
    included. *)

val model_line : num_vars:int -> bool array -> string
(** The DIMACS ["v ... 0"] model line, clamped/padded to exactly
    [num_vars] literals (missing entries print as the negative
    phase) — a model array longer or shorter than the formula's
    declared variable count never produces a malformed line. *)

(** {2 Shared grammar and renderers}

    One parser and one set of answer renderers for every transport:
    the front-end ({!Net.Event_loop}) serves pipe, TCP and Unix-socket
    connections through these, so a command means the same thing —
    and an answer is byte-identical — on each. *)

type request =
  | Solve_file of {
      file : string;
      deadline : float option;  (** seconds from now, may be non-finite *)
      priority : int option;
    }
  | Session_solve of { sid : int; deadline : float option }
  | Session_op of { sid : int; verb : string; op : Session.op }
  | Open_session
  | Client of string
      (** declare this connection's client (tenant) id *)
  | Stats
  | Metrics_now  (** [METRICS]: immediate snapshot, no barrier *)
  | Sync
  | Ping
  | Quit
  | Comment
  | Bad of string  (** the ERROR line to answer *)

val parse_request : string -> request

val submit_file :
  Engine.t -> ?deadline:float -> ?priority:int -> string ->
  (Engine.ticket * int, string) result
(** The [SOLVE <file>] step of both transports: load the operand,
    time the load into {!Metrics.record_parse} and submit it.  AIGER
    ([.aag]) files go through the circuit pipeline (Tseitin, outputs
    asserted) and are flattened; everything else is DIMACS, parsed by
    the zero-copy mmap reader ({!Cnf.Dimacs.read_flat_file}) straight
    into the {!Cnf.Flat.t} the engine solves.  [Ok (ticket, num_vars)]
    when admitted; otherwise [Error line], the answer line to print
    under {!job_header}: [ERROR cannot load <file>: <reason>] for an
    unreadable or malformed file (the parser's message, e.g.
    [bad token: x]), [REJECTED <reason>] when admission refuses the
    job. *)

val job_header : seq:int -> file:string -> string
val open_header : seq:int -> string
val session_header : sid:int -> seq:int -> verb:string -> string
(** The pre-answer headers used for REJECTED/ERROR lines, where no
    engine answer exists to render timing from. *)

val answer_lines :
  seq:int -> file:string -> num_vars:int -> Engine.answer -> string list
(** Render a one-shot answer: header, verdict, model line for SAT. *)

val session_answer_lines :
  seq:int -> sid:int -> verb:string -> Session.answer -> string list
(** Render a session answer: header, outcome, model or core line. *)
