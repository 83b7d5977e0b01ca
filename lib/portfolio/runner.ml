type worker_outcome =
  | Answered of Sat.Solver.result * Sat.Solver.stats
  | Cancelled
  | Limit of Sat.Solver.stats
  | Failed of string

type worker_report = {
  strategy : Strategy.t;
  outcome : worker_outcome;
}

type outcome = {
  result : Sat.Solver.result;
  winner : int option;
  stats : Sat.Solver.stats;
  wall : float;
  workers : worker_report array;
  shared_published : int;
  shared_delivered : int;
  shared_dropped : int;
}

let result_name = function
  | Sat.Solver.Sat _ -> "SAT"
  | Sat.Solver.Unsat -> "UNSAT"
  | Sat.Solver.Unknown -> "UNKNOWN"

let take n l = List.filteri (fun i _ -> i < n) l

(* A prepared lane's optional model lift: report [Sat] answers over the
   input formula's variables when the lane knows how. *)
let apply_lift lift result =
  match (result, lift) with
  | Sat.Solver.Sat m, Some g -> Sat.Solver.Sat (g m)
  | _ -> result

(* --- sequential race (jobs = 1) ------------------------------------- *)

(* Deterministic: strategies run one after the other under the full
   limits, no domains, no sharing, no interrupts.  The caller's proof
   is threaded directly into the direct lanes, so the first lane is
   bit-identical to a plain [Sat.Solver.solve]. *)
let run_sequential ~limits ~proof ~log strategies formula =
  let t0 = Sat.Wall.now () in
  let strategies = Array.of_list strategies in
  let reports =
    Array.map (fun strategy -> { strategy; outcome = Cancelled }) strategies
  in
  let winner = ref None in
  let i = ref 0 in
  while !winner = None && !i < Array.length strategies do
    let st = strategies.(!i) in
    let outcome =
      try
        let f, lift = match st.Strategy.prepare with
          | None -> (formula, None)
          | Some prep -> prep ~stop:(fun () -> false)
        in
        let wproof =
          if st.Strategy.share_group = Some 0 then proof else None
        in
        let result, stats =
          Sat.Solver.solve ~limits ?proof:wproof
            ~heuristic:st.Strategy.heuristic ~restarts:st.Strategy.restarts f
        in
        let result = apply_lift lift result in
        match result with
        | Sat.Solver.Sat _ | Sat.Solver.Unsat ->
          winner := Some !i;
          Answered (result, stats)
        | Sat.Solver.Unknown -> Limit stats
      with e -> Failed (Printexc.to_string e)
    in
    (match outcome with
     | Answered (r, st') ->
       log (Printf.sprintf "lane %d (%s): %s in %.3fs" !i st.Strategy.name
              (result_name r) st'.Sat.Solver.time)
     | Limit _ ->
       log (Printf.sprintf "lane %d (%s): limit" !i st.Strategy.name)
     | Failed msg ->
       log (Printf.sprintf "lane %d (%s) failed: %s" !i st.Strategy.name msg)
     | Cancelled -> ());
    reports.(!i) <- { strategy = st; outcome };
    incr i
  done;
  let result, stats =
    match !winner with
    | Some w -> (
      match reports.(w).outcome with
      | Answered (r, s) -> (r, s)
      | _ -> assert false)
    | None -> (Sat.Solver.Unknown, Sat.Solver.empty_stats)
  in
  {
    result;
    winner = !winner;
    stats;
    wall = Sat.Wall.now () -. t0;
    workers = reports;
    shared_published = 0;
    shared_delivered = 0;
    shared_dropped = 0;
  }

(* --- reusable worker pool -------------------------------------------- *)

(* A persistent set of worker domains consuming race tasks from one
   queue.  Spawning a domain costs a thread plus a GC registration;
   under the solve service every job runs a race, so the domains are
   created once per server (or once per [run] call on the one-shot
   path) instead of once per race. *)
type pool = {
  size : int;
  tasks : (unit -> unit) Queue.t;
  pm : Mutex.t;
  pc : Condition.t;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

let create_pool ~jobs () =
  let size = max 1 jobs in
  let pool =
    {
      size;
      tasks = Queue.create ();
      pm = Mutex.create ();
      pc = Condition.create ();
      stopped = false;
      domains = [||];
    }
  in
  let rec worker () =
    Mutex.lock pool.pm;
    while Queue.is_empty pool.tasks && not pool.stopped do
      Condition.wait pool.pc pool.pm
    done;
    if Queue.is_empty pool.tasks then Mutex.unlock pool.pm (* stopped *)
    else begin
      let task = Queue.pop pool.tasks in
      Mutex.unlock pool.pm;
      (* Tasks are latch-wrapped race lanes that catch their own
         exceptions; the guard here only protects the pool itself. *)
      (try task () with _ -> ());
      worker ()
    end
  in
  pool.domains <- Array.init size (fun _ -> Domain.spawn worker);
  pool

let pool_size pool = pool.size

let submit_task pool task =
  Mutex.lock pool.pm;
  if pool.stopped then begin
    Mutex.unlock pool.pm;
    invalid_arg "Runner: pool is shut down"
  end;
  Queue.push task pool.tasks;
  Condition.signal pool.pc;
  Mutex.unlock pool.pm

let shutdown_pool pool =
  Mutex.lock pool.pm;
  let first = not pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.pc;
  Mutex.unlock pool.pm;
  if first then Array.iter Domain.join pool.domains

(* Fan a batch of thunks onto the pool and wait for all of them — the
   cube scheduler's dispatch primitive.  Thunk exceptions are swallowed
   (each thunk is expected to record its own outcome); the latch always
   reaches zero. *)
let dispatch pool thunks =
  let n = Array.length thunks in
  if n > 0 then begin
    let remaining = ref n in
    let lm = Mutex.create () in
    let lc = Condition.create () in
    Array.iter
      (fun thunk ->
        submit_task pool (fun () ->
            (try thunk () with _ -> ());
            Mutex.lock lm;
            decr remaining;
            if !remaining = 0 then Condition.broadcast lc;
            Mutex.unlock lm))
      thunks;
    Mutex.lock lm;
    while !remaining > 0 do
      Condition.wait lc lm
    done;
    Mutex.unlock lm
  end

(* --- parallel race --------------------------------------------------- *)

(* Race the first [pool.size] strategies on the pool's workers.  A
   one-worker pool still runs the parallel protocol (interrupts, clause
   bus) on its single domain. *)
let run_in ~share_lbd ~limits ~proof ~log pool strategies formula =
  let t0 = Sat.Wall.now () in
  let c0 = Sys.time () in
  let strategies = Array.of_list (take pool.size strategies) in
  let n = Array.length strategies in
  let bus =
    Clause_bus.create
      ~groups:(Array.map (fun s -> s.Strategy.share_group) strategies)
  in
  (* The race's cancellation flag, set once the race is decided. *)
  let cancel = Sat.Solver.Interrupt.create () in
  (* First decisive answer wins; the CAS arbitrates photo finishes. *)
  let race_winner = Atomic.make (-1) in
  (* Direct lanes log into one deletion-free shared recorder (see
     Proof's documentation for why the merged log stays checkable);
     it is replayed into the caller's recorder only if the race
     refutes the formula via a direct lane. *)
  let shared_proof =
    match proof with
    | None -> None
    | Some _ -> Some (Sat.Proof.create ~record_deletions:false ())
  in
  let work i =
    let st = strategies.(i) in
    try
      let f, lift = match st.Strategy.prepare with
        | None -> (formula, None)
        | Some prep ->
          prep ~stop:(fun () -> Sat.Solver.Interrupt.is_set cancel)
      in
      if Sat.Solver.Interrupt.is_set cancel then Cancelled
      else begin
        let sharing = share_lbd > 0 && st.Strategy.share_group <> None in
        let export =
          if sharing then
            Some (fun clause lbd -> Clause_bus.publish bus ~worker:i clause lbd)
          else None
        and import =
          if sharing then Some (fun () -> Clause_bus.drain bus ~worker:i)
          else None
        in
        let wproof =
          if st.Strategy.share_group = Some 0 then shared_proof else None
        in
        let result, stats =
          Sat.Solver.solve ~limits ?proof:wproof
            ~heuristic:st.Strategy.heuristic
            ~restarts:st.Strategy.restarts ~interrupt:cancel ?export
            ~export_lbd:(if share_lbd > 0 then share_lbd else max_int)
            ?import f
        in
        let result = apply_lift lift result in
        match result with
        | Sat.Solver.Sat _ | Sat.Solver.Unsat ->
          if Atomic.compare_and_set race_winner (-1) i then begin
            log (Printf.sprintf "worker %d (%s): %s in %.3fs — race won" i
                   st.Strategy.name (result_name result)
                   stats.Sat.Solver.time);
            Sat.Solver.Interrupt.set cancel
          end;
          Answered (result, stats)
        | Sat.Solver.Unknown ->
          if Sat.Solver.Interrupt.is_set cancel then Cancelled
          else Limit stats
      end
    with
    | _ when Sat.Solver.Interrupt.is_set cancel ->
      (* A preparation abandoned because the race is over raises out
         of its [stop] poll; that is a cancellation, not a failure. *)
      Cancelled
    | e ->
      let msg = Printexc.to_string e in
      log (Printf.sprintf "worker %d (%s) failed: %s — racing on" i
             st.Strategy.name msg);
      Failed msg
  in
  (* Fan the lanes out to the pool and wait on a countdown latch.
     With fewer workers than lanes the excess lanes start when a
     worker frees up; a lane that starts after the race is decided
     answers [Cancelled] from its entry interrupt check. *)
  let outcomes = Array.make n Cancelled in
  let remaining = ref n in
  let lm = Mutex.create () in
  let lc = Condition.create () in
  Array.iteri
    (fun i _ ->
      submit_task pool (fun () ->
          let o = work i in
          Mutex.lock lm;
          outcomes.(i) <- o;
          decr remaining;
          if !remaining = 0 then Condition.broadcast lc;
          Mutex.unlock lm))
    strategies;
  Mutex.lock lm;
  while !remaining > 0 do
    Condition.wait lc lm
  done;
  Mutex.unlock lm;
  let winner =
    match Atomic.get race_winner with -1 -> None | i -> Some i
  in
  (* [Sys.time] is process-wide, so each lane's own reading
     over-attributes the other domains' concurrent work to it.  The
     race-level delta measured here is the only meaningful CPU
     figure: it goes into the winner's stats, and the per-lane field
     is zeroed everywhere else (see [Sat.Solver.stats.cpu_time]). *)
  let race_cpu = Sys.time () -. c0 in
  let outcomes =
    Array.mapi
      (fun i o ->
        let cpu = if Some i = winner then race_cpu else 0.0 in
        match o with
        | Answered (r, s) ->
          Answered (r, { s with Sat.Solver.cpu_time = cpu })
        | Limit s -> Limit { s with Sat.Solver.cpu_time = cpu }
        | o -> o)
      outcomes
  in
  let workers =
    Array.init n (fun i ->
        { strategy = strategies.(i); outcome = outcomes.(i) })
  in
  let result, stats =
    match winner with
    | Some w -> (
      match outcomes.(w) with
      | Answered (r, s) -> (r, s)
      | _ -> assert false)
    | None -> (Sat.Solver.Unknown, Sat.Solver.empty_stats)
  in
  (match (result, proof, shared_proof) with
   | Sat.Solver.Unsat, Some p, Some sp when Sat.Proof.sealed sp ->
     Sat.Proof.replay ~into:p sp
   | _ -> ());
  {
    result;
    winner;
    stats;
    wall = Sat.Wall.now () -. t0;
    workers;
    shared_published = Clause_bus.published bus;
    shared_delivered = Clause_bus.delivered bus;
    shared_dropped = Clause_bus.dropped bus;
  }

(* --- one-shot entry point -------------------------------------------- *)

let run ?(jobs = 4) ?(share_lbd = 4) ?(limits = Sat.Solver.no_limits) ?proof
    ?log strategies formula =
  if strategies = [] then invalid_arg "Runner.run: no strategies";
  let log_lock = Mutex.create () in
  let log msg =
    match log with
    | None -> ()
    | Some f ->
      Mutex.lock log_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock log_lock) (fun () -> f msg)
  in
  let jobs = max 1 jobs in
  if jobs = 1 then run_sequential ~limits ~proof ~log strategies formula
  else begin
    (* Race on a transient pool sized to the race: the domains live
       exactly as long as the race. *)
    let pool =
      create_pool ~jobs:(min jobs (List.length strategies)) ()
    in
    Fun.protect
      ~finally:(fun () -> shutdown_pool pool)
      (fun () -> run_in ~share_lbd ~limits ~proof ~log pool strategies formula)
  end
