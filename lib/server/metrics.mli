(** Service counters and latency percentiles: one typed registry.

    One mutex-guarded accumulator per server.  Every value STATS shows
    is a {!counter} or a timing statistic, declared once in the
    registry table of [metrics.ml] with its JSON name and its source
    (counted, derived sum, sampled, or read off a {!timing} window).
    {!to_json} renders that table generically, so the STATS line keeps
    one fixed layout:

    - keys appear in registry order, which is a contract: flat
      ["key": N] scanners (the perfbench STATS reader among them)
      resolve each key to its first occurrence;
    - counts render as [%d], milliseconds as [%.3f];
    - the per-client object ["clients"] comes last, so a client's
      [requests]/[answered]/[rejected] never shadow a top-level key.

    {2 The ledger}

    Every request that enters the engine lands on exactly one of the
    six request legs ({!requests} sums them):

    - [Rejected]     (queue full / bad deadline / server stopping /
                      session refusals — never ran),
    - [Cache_hits]   (answered at submit time from the cache),
    - [Warm_hits]    (cache miss, but a warm-start snapshot for the
                      fingerprint was found: the job solves, seeded),
    - [Dedup_joins]  (attached to an in-flight job's future),
    - [Session_ops]  (accepted onto a session's op FIFO),
    - [Submitted]    (became a new cold one-shot solve job).

    Every job lands in exactly one of [Solved_sat], [Solved_unsat],
    [Timeouts] or [Failures].  {!reconcile} checks the identities that
    follow, declared once as data.  Latencies are request-level (submit
    to answer), kept in a window of the most recent 4096 observations;
    percentiles are nearest-rank over that window. *)

type t

type counter =
  | Submitted
  | Completed
      (** derived: [Solved_sat + Solved_unsat + Timeouts + Failures];
          equals [Submitted + Warm_hits] once nothing is in flight *)
  | Solved_sat
  | Solved_unsat
  | Timeouts
  | Failures
  | Rejected
  | Cache_hits
  | Warm_hits
      (** submits that found a warm-start snapshot (counted instead of
          [Submitted]) *)
  | Warm_seeded
      (** solves that actually started from a snapshot — at most
          [Warm_hits]; a warm job cancelled before it ran never seeds *)
  | Cubed
      (** jobs that crossed the hardness trigger and escalated to
          cube-and-conquer (orthogonal to the request ledger: a cubed
          job still completes exactly once) *)
  | Cubes_solved  (** cubes refuted or satisfied across those jobs *)
  | Cube_steals  (** cube claims by a non-owner pool worker *)
  | Dedup_joins
  | Session_ops  (** session operations accepted *)
  | Sessions_opened
      (** equals [Sessions_live + Sessions_closed + Sessions_evicted] *)
  | Sessions_closed
  | Sessions_evicted  (** LRU or idle-TTL evictions *)
  | Session_solves  (** [Solve] ops that reached the solver *)
  | Sessions_live  (** sampled at snapshot time *)
  | Queue_depth  (** sampled at snapshot time *)
  | Inflight  (** sampled: jobs submitted but not yet completed *)
  | Cache_entries  (** sampled at snapshot time *)
  | Latency_count  (** [Latency] observations ever recorded *)
  | Parse_count  (** [Parse] observations ever recorded *)

type timing =
  | Latency
      (** one request's latency, submit to answer: cache hits, job
          completions, dedup joiners and session solves; renders
          [p50_ms]/[p95_ms]/[max_ms] *)
  | Parse
      (** one formula load (file read + parse) at a transport front-end;
          renders [parse_p50_ms]/[parse_p95_ms]/[parse_max_ms] *)

type client_leg = [ `Requests | `Answered | `Rejected ]
(** Per-client (tenant) counters, recorded by transport front-ends
    against the client id a connection declared: commands handed to
    the engine, answers delivered, and quota, overload or engine
    rejections. *)

val create : unit -> t

(** {2 Recording} *)

val add : t -> ?n:int -> counter -> unit
(** Add [n] (default 1) to a counted value.  Derived, sampled and
    observed counters are computed by {!snapshot}; adding to them has
    no visible effect. *)

val observe : t -> timing -> float -> unit
(** One observation, in seconds (negative values count as 0). *)

val count_client : t -> client:string -> client_leg -> unit

(** {2 Reading} *)

type snapshot

val snapshot : t -> sampled:(counter * int) list -> snapshot
(** A consistent reading of every value.  [sampled] supplies the
    values the accumulator cannot see ([Sessions_live], [Queue_depth],
    [Inflight], [Cache_entries]); a missing one reads 0. *)

val get : snapshot -> counter -> int

val client : snapshot -> string -> client_leg -> int option
(** [None] when the client id never recorded anything. *)

val requests : snapshot -> int
(** The sum of the six request legs. *)

val reconcile : snapshot -> string list
(** The ledger identities the snapshot violates, one line each; [[]]
    when it reconciles.  Checked: the derived sum [Completed],
    [Completed = Submitted + Warm_hits] once
    [Inflight] is 0, [Sessions_opened = Sessions_live + Sessions_closed
    + Sessions_evicted], and [Warm_seeded <= Warm_hits]. *)

val to_json : snapshot -> string
(** Single-line JSON object in registry order, [clients] last. *)
