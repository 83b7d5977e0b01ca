(* Solve-service throughput: the [server] suite.

     dune exec bench/bench.exe -- server
     dune exec bench/bench.exe -- server --workers 8 --scale 0.5
     dune exec bench/bench.exe -- server --check BENCH_server.json

   Pushes a duplicated php/LEC suite through the concurrent server
   twice: a cold pass (every unique formula solved once, the
   duplicated copies — clause-shuffled so only the canonical
   fingerprint matches them — answered by in-flight dedup or the
   cache) and a warm pass of the identical batch (all cache hits).
   Reports jobs/sec on the cold pass and the cold/warm wall ratio as
   the cache-hit speedup, plus the engine's own metrics snapshot.

   The gate fails if throughput fell more than 10% below the committed
   number or the cache speedup collapsed. *)

let instances ~scale =
  let dim = Harness.dim ~scale in
  [
    ("php(7,6)", Workloads.Satcomp.pigeonhole ~pigeons:7 ~holes:6);
    ("php(8,7)", Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7);
    ("php(9,8)", Workloads.Satcomp.pigeonhole ~pigeons:9 ~holes:8);
    ("lec-miter-5", Workloads.Suites.miter_cnf ~seed:5 ~num_ands:(dim 300));
    ("lec-miter-11", Workloads.Suites.miter_cnf ~seed:11 ~num_ands:(dim 300));
    ("parity-miter", Workloads.Suites.parity_miter_cnf ~num_bits:(dim 16));
    ( "r3sat-2",
      Workloads.Satcomp.random_ksat ~seed:2 ~num_vars:(dim 1200)
        ~num_clauses:(dim 3600) ~k:3 );
    ( "r3sat-4",
      Workloads.Satcomp.random_ksat ~seed:4 ~num_vars:(dim 1200)
        ~num_clauses:(dim 3600) ~k:3 );
  ]

(* A clause-order permutation: a different DIMACS file, the same
   canonical fingerprint — the duplicate detector has to earn it. *)
let shuffle seed f =
  let rng = Aig.Rng.create (97 * seed) in
  let cls = Array.copy f.Cnf.Formula.clauses in
  for i = Array.length cls - 1 downto 1 do
    let j = Aig.Rng.int rng (i + 1) in
    let tmp = cls.(i) in
    cls.(i) <- cls.(j);
    cls.(j) <- tmp
  done;
  Cnf.Formula.create ~num_vars:f.Cnf.Formula.num_vars (Array.to_list cls)

let run_batch engine jobs =
  let t0 = Sat.Wall.now () in
  let tickets =
    List.map
      (fun (name, f) ->
        match Server.submit engine f with
        | Ok t -> (name, t)
        | Error r -> failwith (name ^ " rejected: " ^ r))
      jobs
  in
  let answers =
    List.map (fun (name, t) -> (name, Server.await engine t)) tickets
  in
  (Sat.Wall.now () -. t0, answers)

let run () =
  let workers = Harness.arg "--workers" int_of_string 4 in
  let scale = Harness.arg "--scale" float_of_string 1.0 in
  let copies = Harness.arg "--copies" int_of_string 3 in
  let suite = instances ~scale in
  let jobs =
    List.concat_map
      (fun (name, f) ->
        List.init copies (fun c ->
            ( Printf.sprintf "%s#%d" name c,
              Cnf.Flat.of_formula (if c = 0 then f else shuffle c f) )))
      suite
  in
  let total_jobs = List.length jobs in
  Printf.printf
    "server bench: %d unique instances x %d copies = %d jobs, %d workers\n%!"
    (List.length suite) copies total_jobs workers;
  let config =
    {
      Server.default_config with
      Server.workers;
      queue_capacity = max 64 (2 * total_jobs);
      cache_capacity = 2 * total_jobs;
      (* warm starts off: this bench isolates the verdict cache, and a
         warm resume would blur the cold-vs-repeat contrast *)
      warm_capacity = 0;
      session_ttl = None;
    }
  in
  let engine = Server.create ~config () in
  let cold_wall, cold_answers = run_batch engine jobs in
  let s_cold = Server.stats engine in
  let warm_wall, _ = run_batch engine jobs in
  let s_final = Server.stats engine in
  let throughput = float_of_int total_jobs /. cold_wall in
  let speedup = cold_wall /. warm_wall in
  Printf.printf
    "cold pass: %.3fs (%.1f jobs/sec; %d solved, %d deduped/cached)\n"
    cold_wall throughput s_cold.Server.Metrics.submitted
    (s_cold.Server.Metrics.cache_hits + s_cold.Server.Metrics.dedup_joins);
  Printf.printf "warm pass: %.3fs (cache-hit speedup %.1fx)\n%!" warm_wall
    speedup;
  let firsts =
    List.filter_map
      (fun (name, (a : Server.answer)) ->
        if Filename.check_suffix name "#0" then
          Some (Filename.chop_suffix name "#0", a)
        else None)
      cold_answers
  in
  List.iter
    (fun (name, (a : Server.answer)) ->
      Printf.printf "  %-14s %-7s solve=%.3fs\n" (name ^ "#0")
        (Harness.verdict_name a.Server.verdict)
        a.Server.solve_wall)
    firsts;
  Server.shutdown engine;
  let open Harness in
  Some
    ( Obj
        [
          ("workers", int workers);
          ("unique_instances", int (List.length suite));
          ("copies", int copies);
          ("total_jobs", int total_jobs);
          ("cold_wall_seconds", fixed 3 cold_wall);
          ("warm_wall_seconds", fixed 4 warm_wall);
          ("throughput_jobs_per_sec", fixed 2 throughput);
          ("cache_hit_speedup", fixed 1 speedup);
          ( "cold_pass",
            Obj
              [
                ("solved", int s_cold.Server.Metrics.submitted);
                ("cache_hits", int s_cold.Server.Metrics.cache_hits);
                ("dedup_joins", int s_cold.Server.Metrics.dedup_joins);
              ] );
          ( "instances",
            List
              (List.map
                 (fun (name, (a : Server.answer)) ->
                   Obj
                     [
                       ("name", Str name);
                       ("verdict", Str (verdict_name a.Server.verdict));
                       ("solve_wall", fixed 3 a.Server.solve_wall);
                     ])
                 firsts) );
          ("final_stats", Raw (Server.Metrics.to_json s_final));
        ],
      fun committed ->
        let base_tp = committed [ "throughput_jobs_per_sec" ]
        and base_su = committed [ "cache_hit_speedup" ] in
        (* The warm pass is sub-millisecond absolute time, so its ratio
           swings wildly on shared CI runners: demand only that caching
           still pays for itself by an order of magnitude less than the
           committed figure, alongside the usual 10% throughput band. *)
        [
          at_least "jobs/sec vs 0.9x committed" throughput (0.9 *. base_tp);
          at_least "cache-hit speedup vs committed/10" speedup
            (base_su /. 10.0);
          at_least "cache-hit speedup vs 2x floor" speedup 2.0;
        ] )

let suite =
  {
    Harness.name = "server";
    doc = "solve-service jobs/sec and cache-hit speedup";
    keys = [ [ "throughput_jobs_per_sec" ]; [ "cache_hit_speedup" ] ];
    run;
  }
