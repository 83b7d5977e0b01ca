(* Incremental-session speedup: the [session] suite.

     dune exec bench/bench.exe -- session
     dune exec bench/bench.exe -- session --workers 4 --queries 8
     dune exec bench/bench.exe -- session --check BENCH_session.json

   The SAT-sweeping workload persistent sessions exist for: a suite of
   php/LEC instances, each probed with a handful of related queries
   (the same base formula under different assumption literals — the
   shape of consecutive CEC miter checks).  The cold pass submits
   every query as an independent one-shot job: the base clauses are
   re-loaded and re-solved from scratch each time, and a per-query
   unit clause keeps every fingerprint distinct so neither the result
   cache nor in-flight dedup can help.  The incremental pass opens one
   session per instance, adds the base once and answers the same
   queries with ASSUME+SOLVE against the persistent solver — clauses
   learned by the first query (and a base refutation, once found) are
   reused by all the rest.  Both passes run through the same engine
   and worker pool, so the reported speedup is purely the value of
   keeping solver state alive across queries.

   Each of [reps] repetitions runs both passes on a fresh engine; the
   suite records the median of each pass's wall and the median of the
   repetitions' speedups, so one slow pass on a shared machine moves
   neither.  The gate fails if the speedup fell below the 5x floor or
   more than 10% below the committed number. *)

let reps = 5

let instances ~scale =
  let dim = Harness.dim ~scale in
  [
    ("php(7,6)", Workloads.Satcomp.pigeonhole ~pigeons:7 ~holes:6);
    ("php(8,7)", Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7);
    ("lec-miter-5", Workloads.Suites.miter_cnf ~seed:5 ~num_ands:(dim 300));
    ("lec-miter-11", Workloads.Suites.miter_cnf ~seed:11 ~num_ands:(dim 300));
    ("parity-miter", Workloads.Suites.parity_miter_cnf ~num_bits:(dim 16));
  ]

(* Query 0 checks the instance outright — the CEC pattern, where the
   first query refutes the miter and every later probe of the same
   sweep rides on the established refutation and the learned clauses.
   Queries 1.. re-check under a fresh selector variable each (the
   consecutive near-identical miter probes of a sweep: the delta is
   cosmetic, but it changes the fingerprint, so neither the result
   cache nor dedup can shortcut the cold pass — every cold job pays
   the full base solve). *)
let query_lit f q = f.Cnf.Formula.num_vars + q

let cold_formula f q =
  Cnf.Flat.of_formula
    (if q = 0 then f
     else
       Cnf.Formula.create ~num_vars:(f.Cnf.Formula.num_vars + q)
         (Array.to_list f.Cnf.Formula.clauses @ [ [| query_lit f q |] ]))

let verdict_of_outcome = function
  | Server.Session.Ok_done -> "OK"
  | Server.Session.Sat _ -> "SAT"
  | Server.Session.Unsat _ -> "UNSAT"
  | Server.Session.Timeout -> "TIMEOUT"
  | Server.Session.Evicted -> "EVICTED"
  | Server.Session.Failed _ -> "FAILED"

(* One one-shot job per (instance, query); submit everything, then
   await — the worker pool runs the batch at full width. *)
let run_cold engine suite ~queries =
  let t0 = Sat.Wall.now () in
  let tickets =
    List.concat_map
      (fun (name, f) ->
        List.init queries (fun q ->
            (name, Harness.ok (Server.submit engine (cold_formula f q)))))
      suite
  in
  let answers =
    List.map (fun (name, t) -> (name, Server.await engine t)) tickets
  in
  (Sat.Wall.now () -. t0, answers)

(* One session per instance; the base is added once, then each query
   is an ASSUME+SOLVE pair.  All ops across all sessions are enqueued
   up front — per-session FIFOs keep each session's ops ordered while
   the fair scheduler interleaves sessions across the same worker
   pool the cold pass used. *)
let run_incremental engine suite ~queries =
  let t0 = Sat.Wall.now () in
  let opened =
    List.map
      (fun (name, f) ->
        let sid = Harness.ok (Server.open_session engine) in
        ignore
          (Harness.ok
             (Server.session_submit engine sid
                (Server.Session.Add (Array.to_list f.Cnf.Formula.clauses))));
        let solves =
          List.init queries (fun q ->
              if q > 0 then
                ignore
                  (Harness.ok
                     (Server.session_submit engine sid
                        (Server.Session.Assume [| query_lit f q |])));
              Harness.ok (Server.submit_session_solve engine sid))
        in
        (name, sid, solves))
      suite
  in
  let answers =
    List.concat_map
      (fun (name, sid, solves) ->
        let res =
          List.map
            (fun t -> (name, Server.Session.await t))
            solves
        in
        ignore (Harness.ok (Server.close_session engine sid));
        res)
      opened
  in
  (Sat.Wall.now () -. t0, answers)

let run () =
  let workers = Harness.arg "--workers" int_of_string 2 in
  let scale = Harness.arg "--scale" float_of_string 1.0 in
  let queries = Harness.arg "--queries" int_of_string 8 in
  let suite = instances ~scale in
  let total = List.length suite * queries in
  Printf.printf
    "session bench: %d instances x %d queries = %d solves, %d workers\n%!"
    (List.length suite) queries total workers;
  let config =
    {
      Server.default_config with
      Server.workers;
      queue_capacity = max 64 (2 * total);
      cache_capacity = 2 * total;
      warm_capacity = 0;  (* isolate incremental-vs-cold, no warm resume *)
      session_capacity = max 8 (List.length suite);
      session_ttl = None;
    }
  in
  let rep () =
    let engine = Server.create ~config () in
    Fun.protect ~finally:(fun () -> Server.shutdown engine) @@ fun () ->
    let cold_wall, cold_answers = run_cold engine suite ~queries in
    let incr_wall, incr_answers = run_incremental engine suite ~queries in
    (* The probes are assumption literals over an UNSAT base, so both
       passes must agree query by query. *)
    List.iter2
      (fun (cn, (ca : Server.answer)) (sn, (sa : Server.Session.answer)) ->
        let cv = Harness.verdict_name ca.Server.verdict
        and sv = verdict_of_outcome sa.Server.Session.outcome in
        if cn <> sn || cv <> sv then
          failwith
            (Printf.sprintf "verdict mismatch: cold %s=%s vs session %s=%s" cn
               cv sn sv))
      cold_answers incr_answers;
    let wall name walls =
      List.fold_left
        (fun acc (n, w) -> if n = name then acc +. w else acc)
        0.0 walls
    in
    let per_instance =
      List.map
        (fun (name, _) ->
          ( wall name
              (List.map
                 (fun (n, (a : Server.answer)) -> (n, a.Server.solve_wall))
                 cold_answers),
            wall name
              (List.map
                 (fun (n, (a : Server.Session.answer)) ->
                   (n, a.Server.Session.solve_wall))
                 incr_answers) ))
        suite
    in
    Printf.printf "  rep: cold %.3fs, incremental %.3fs, %.1fx\n%!" cold_wall
      incr_wall (cold_wall /. incr_wall);
    (cold_wall, incr_wall, per_instance)
  in
  let runs = List.init reps (fun _ -> rep ()) in
  let median f = Harness.median (List.map f runs) in
  let cold_wall = median (fun (c, _, _) -> c)
  and incr_wall = median (fun (_, i, _) -> i)
  and speedup = median (fun (c, i, _) -> c /. i) in
  Printf.printf "cold pass:        %.3fs (%d one-shot jobs, median of %d)\n"
    cold_wall total reps;
  Printf.printf "incremental pass: %.3fs (%d session solves, median of %d)\n"
    incr_wall total reps;
  Printf.printf "speedup: %.1fx (median of %d)\n%!" speedup reps;
  let per_instance =
    List.mapi
      (fun k (name, _) ->
        let nth f = median (fun (_, _, p) -> f (List.nth p k)) in
        (name, nth fst, nth snd))
      suite
  in
  List.iter
    (fun (name, cold, incr) ->
      Printf.printf "  %-14s cold=%.3fs incremental=%.3fs\n" name cold incr)
    per_instance;
  let open Harness in
  Some
    ( Obj
        (host ()
        @ [
          ("workers", int workers);
          ("instances", int (List.length suite));
          ("queries_per_instance", int queries);
          ("total_solves", int total);
          ("reps", int reps);
          ("cold_wall_seconds", fixed 3 cold_wall);
          ("incremental_wall_seconds", fixed 4 incr_wall);
          ("incremental_speedup", fixed 1 speedup);
          ( "per_instance",
            List
              (List.map
                 (fun (name, cold, incr) ->
                   Obj
                     [
                       ("name", Str name);
                       ("cold_solve_seconds", fixed 3 cold);
                       ("incremental_solve_seconds", fixed 4 incr);
                     ])
                 per_instance) );
        ]),
      fun committed ->
        let base = committed [ "incremental_speedup" ] in
        (* The incremental pass is a few milliseconds absolute, so the
           ratio is noisy on shared runners: hold the 5x floor the
           design promises, and the usual 10% band against the
           committed figure only down to that floor. *)
        [
          at_least "incremental speedup vs 5x floor" speedup 5.0;
          at_least "incremental speedup vs 0.9x committed"
            speedup (Float.min (0.9 *. base) (base -. 1.0));
        ] )

let suite =
  {
    Harness.name = "session";
    doc = "incremental sessions vs cold one-shot re-solves";
    keys = [ [ "incremental_speedup" ] ];
    run;
  }
