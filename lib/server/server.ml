(** The concurrent solve service (see {!Engine} for the full
    contract).  [Server.submit]/[Server.await]/[Server.stats] are the
    typed OCaml API; {!Protocol} parses and renders the `eda4sat
    serve` line protocol that {!Net.Event_loop} serves; {!Job_queue},
    {!Cache} and {!Metrics} are the building blocks, exposed for tests
    and reuse. *)

include Engine
module Job_queue = Job_queue
module Cache = Cache
module Metrics = Metrics
module Session = Session
module Protocol = Protocol
