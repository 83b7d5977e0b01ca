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

(* --- the work loop ---------------------------------------------------- *)

(* A failed spawn is not an error: the bodies already running, the
   caller's among them, claim every index. *)
let spread ~workers n f =
  let next = Atomic.make 0 in
  let rec body worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      f ~worker i;
      body worker ()
    end
  in
  if workers <= 1 then body 0 ()
  else begin
    let run worker () = try body worker () with _ -> () in
    let spawned = ref [] in
    (try
       for w = 1 to workers - 1 do
         spawned := Domain.spawn (run w) :: !spawned
       done
     with _ -> ());
    run 0 ();
    List.iter Domain.join !spawned
  end

(* --- steps shared by the race and the conquest ----------------------- *)

let with_shared_proof proof f =
  match proof with
  | None -> f None
  | Some into ->
    let shared = Sat.Proof.create ~record_deletions:false () in
    let r = f (Some shared) in
    if Sat.Proof.sealed shared then Sat.Proof.replay ~into shared;
    r

let serialize = function
  | None -> fun _ -> ()
  | Some emit ->
    let m = Mutex.create () in
    fun msg -> Mutex.protect m (fun () -> try emit msg with _ -> ())

(* --- the race -------------------------------------------------------- *)

let run ?(jobs = 4) ?(share_lbd = 4) ?(limits = Sat.Solver.no_limits) ?proof
    ?log strategies flat =
  if strategies = [] then invalid_arg "Runner.run: no strategies";
  let t0 = Sat.Wall.now () in
  let c0 = Sys.time () in
  let log = serialize log in
  let strategies = Array.of_list strategies in
  let n = Array.length strategies in
  let workers = min (max 1 jobs) n in
  (* Only lanes solving the input itself may exchange clauses: a clause
     learned from a transformed CNF is not in general implied by the
     input. *)
  let shares st =
    workers > 1 && share_lbd > 0 && st.Strategy.prepare = None
  in
  let bus = Clause_bus.create ~sharing:(Array.map shares strategies) in
  (* The race's cancel flag: the caller's scope flag, else a fresh one. *)
  let cancel =
    Option.value (Aig.Interrupt.current ()) ~default:(Aig.Interrupt.create ())
  in
  let is_cancelled () = Aig.Interrupt.is_set cancel in
  (* First decisive answer wins; the CAS arbitrates photo finishes. *)
  let race_winner = Atomic.make (-1) in
  let lane proof i =
    let st = strategies.(i) in
    try
      let fl =
        match st.Strategy.prepare with
        | None -> flat
        | Some prep -> Cnf.Flat.of_formula (prep ())
      in
      if is_cancelled () then Cancelled
      else begin
        let config =
          { Sat.Solver.default_config with
            heuristic = st.Strategy.heuristic;
            restarts = st.Strategy.restarts }
        in
        let config =
          if shares st then
            { config with
              export =
                Some (fun clause lbd ->
                    Clause_bus.publish bus ~worker:i clause lbd);
              export_lbd = share_lbd;
              import = Some (fun () -> Clause_bus.drain bus ~worker:i) }
          else config
        in
        let proof = if st.Strategy.prepare = None then proof else None in
        let result, stats = Sat.Solver.solve_flat ~config ~limits ?proof fl in
        match result with
        | Sat.Solver.Sat _ | Sat.Solver.Unsat ->
          if Atomic.compare_and_set race_winner (-1) i then begin
            log (Printf.sprintf "lane %d (%s): %s in %.3fs — race won" i
                   st.Strategy.name (result_name result)
                   stats.Sat.Solver.time);
            Aig.Interrupt.set cancel
          end;
          Answered (result, stats)
        | Sat.Solver.Unknown ->
          if is_cancelled () then Cancelled
          else begin
            log (Printf.sprintf "lane %d (%s): limit" i st.Strategy.name);
            Limit stats
          end
      end
    with
    | _ when is_cancelled () ->
      (* A preparation abandoned because the race is over raises
         [Aig.Interrupt.Stopped] out of its poll; that is a cancellation,
         not a failure. *)
      Cancelled
    | e ->
      let msg = Printexc.to_string e in
      log (Printf.sprintf "lane %d (%s) failed: %s" i st.Strategy.name msg);
      Failed msg
  in
  (* A lane claimed after the race is decided keeps [Cancelled].  Each
     lane, preparation and solve, runs in the race's stop scope. *)
  let outcomes = Array.make n Cancelled in
  let race proof =
    spread ~workers n (fun ~worker:_ i ->
        if not (is_cancelled ()) then
          outcomes.(i) <- Aig.Interrupt.within cancel (fun () -> lane proof i))
  in
  (* One worker logs straight into the caller's recorder, which keeps
     [jobs = 1] bit-identical to [Sat.Solver.solve]; concurrent direct
     lanes share one deletion-free recorder (see Proof's documentation
     for why the merged log stays checkable). *)
  if workers = 1 then race proof else with_shared_proof proof race;
  let winner =
    match Atomic.get race_winner with -1 -> None | i -> Some i
  in
  (* [Sys.time] is process-wide, so each lane's own reading
     over-attributes the other domains' concurrent work to it.  The
     race-level delta measured here is the only meaningful CPU
     figure: it goes into the winner's stats, and the per-lane field
     is zeroed everywhere else (see [Sat.Solver.stats.cpu_time]). *)
  let race_cpu = Sys.time () -. c0 in
  let reports =
    Array.mapi
      (fun i o ->
        let cpu = if Some i = winner then race_cpu else 0.0 in
        let outcome =
          match o with
          | Answered (r, s) ->
            Answered (r, { s with Sat.Solver.cpu_time = cpu })
          | Limit s -> Limit { s with Sat.Solver.cpu_time = cpu }
          | o -> o
        in
        { strategy = strategies.(i); outcome })
      outcomes
  in
  let result, stats =
    match winner with
    | Some w -> (
      match reports.(w).outcome with
      | Answered (r, s) -> (r, s)
      | _ -> assert false)
    | None -> (Sat.Solver.Unknown, Sat.Solver.empty_stats)
  in
  {
    result;
    winner;
    stats;
    wall = Sat.Wall.now () -. t0;
    workers = reports;
    shared_published = Clause_bus.published bus;
    shared_delivered = Clause_bus.delivered bus;
    shared_dropped = Clause_bus.dropped bus;
  }
