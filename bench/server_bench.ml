(* Solve-service throughput harness.

     dune exec bench/server_bench.exe
     dune exec bench/server_bench.exe -- --workers 8 --scale 0.5
     dune exec bench/server_bench.exe -- --check BENCH_server.json

   Pushes a duplicated php/LEC suite through the concurrent server
   twice: a cold pass (every unique formula solved once, the
   duplicated copies — clause-shuffled so only the canonical
   fingerprint matches them — answered by in-flight dedup or the
   cache) and a warm pass of the identical batch (all cache hits).
   Reports jobs/sec on the cold pass and the cold/warm wall ratio as
   the cache-hit speedup, plus the engine's own metrics snapshot.

   Results go to BENCH_server.json ([--json PATH] redirects them);
   [--check PATH] re-measures and
   exits 1 if throughput fell more than 10% below the committed
   number or the cache speedup collapsed — the CI soft gate. *)

let arg_value name conv default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then conv Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let workers = arg_value "--workers" int_of_string 4
let scale = arg_value "--scale" float_of_string 1.0
let copies = arg_value "--copies" int_of_string 3
let check_path = arg_value "--check" Option.some None
let json_path = arg_value "--json" Fun.id "BENCH_server.json"
let dim n = max 4 (int_of_float (float_of_int n *. scale))

let suite =
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

let jobs =
  List.concat_map
    (fun (name, f) ->
      List.init copies (fun c ->
          ( Printf.sprintf "%s#%d" name c,
            Cnf.Flat.of_formula (if c = 0 then f else shuffle c f) )))
    suite

let verdict_name = function
  | Server.Sat _ -> "SAT"
  | Server.Unsat -> "UNSAT"
  | Server.Timeout -> "TIMEOUT"
  | Server.Failed _ -> "FAILED"

let run_batch engine =
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

let json_number json key =
  let needle = "\"" ^ key ^ "\": " in
  let n = String.length needle and len = String.length json in
  let rec find i =
    if i + n > len then None
    else if String.sub json i n = needle then Some (i + n)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = ref i in
    while
      !j < len
      && (match json.[!j] with '0' .. '9' | '.' | '-' -> true | _ -> false)
    do
      incr j
    done;
    float_of_string_opt (String.sub json i (!j - i))

let () =
  let total_jobs = List.length jobs in
  Printf.printf
    "server bench: %d unique instances x %d copies = %d jobs, %d workers\n%!"
    (List.length suite) copies total_jobs workers;
  let config =
    {
      Server.workers;
      queue_capacity = max 64 (2 * total_jobs);
      cache_capacity = 2 * total_jobs;
      (* warm starts off: this bench isolates the verdict cache, and a
         warm resume would blur the cold-vs-repeat contrast *)
      warm_capacity = 0;
      mode = Server.Direct;
      limits = Sat.Solver.no_limits;
      default_deadline = None;
      session_capacity = 64;
      session_ttl = None;
      cube = None;
      dispatch = None;
    }
  in
  let engine = Server.create ~config () in
  let cold_wall, cold_answers = run_batch engine in
  let s_cold = Server.stats engine in
  let warm_wall, _ = run_batch engine in
  let s_final = Server.stats engine in
  let throughput = float_of_int total_jobs /. cold_wall in
  let speedup = cold_wall /. warm_wall in
  Printf.printf
    "cold pass: %.3fs (%.1f jobs/sec; %d solved, %d deduped/cached)\n"
    cold_wall throughput s_cold.Server.Metrics.submitted
    (s_cold.Server.Metrics.cache_hits + s_cold.Server.Metrics.dedup_joins);
  Printf.printf "warm pass: %.3fs (cache-hit speedup %.1fx)\n%!" warm_wall
    speedup;
  List.iter
    (fun (name, (a : Server.answer)) ->
      if Filename.check_suffix name "#0" then
        Printf.printf "  %-14s %-7s solve=%.3fs\n" name
          (verdict_name a.Server.verdict)
          a.Server.solve_wall)
    cold_answers;
  Server.shutdown engine;
  (match check_path with
   | None ->
     let oc = open_out json_path in
     Printf.fprintf oc
       "{\n\
       \  \"workers\": %d,\n\
       \  \"unique_instances\": %d,\n\
       \  \"copies\": %d,\n\
       \  \"total_jobs\": %d,\n\
       \  \"cold_wall_seconds\": %.3f,\n\
       \  \"warm_wall_seconds\": %.4f,\n\
       \  \"throughput_jobs_per_sec\": %.2f,\n\
       \  \"cache_hit_speedup\": %.1f,\n\
       \  \"cold_pass\": { \"solved\": %d, \"cache_hits\": %d, \
        \"dedup_joins\": %d },\n\
       \  \"instances\": [\n%s\n  ],\n\
       \  \"final_stats\": %s\n\
        }\n"
       workers (List.length suite) copies total_jobs cold_wall warm_wall
       throughput speedup s_cold.Server.Metrics.submitted
       s_cold.Server.Metrics.cache_hits s_cold.Server.Metrics.dedup_joins
       (String.concat ",\n"
          (List.filter_map
             (fun (name, (a : Server.answer)) ->
               if Filename.check_suffix name "#0" then
                 Some
                   (Printf.sprintf
                      "    {\"name\": \"%s\", \"verdict\": \"%s\", \
                       \"solve_wall\": %.3f}"
                      (Filename.chop_suffix name "#0")
                      (verdict_name a.Server.verdict)
                      a.Server.solve_wall)
               else None)
             cold_answers))
       (Server.Metrics.to_json s_final);
     close_out oc;
     print_endline ("wrote " ^ json_path)
   | Some path ->
     let ic = open_in path in
     let json = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let committed key =
       match json_number json key with
       | Some v -> v
       | None -> failwith (key ^ " missing from " ^ path)
     in
     let base_tp = committed "throughput_jobs_per_sec" in
     let base_su = committed "cache_hit_speedup" in
     Printf.printf
       "committed: %.2f jobs/sec, %.1fx cache speedup\n\
        fresh:     %.2f jobs/sec, %.1fx cache speedup\n%!"
       base_tp base_su throughput speedup;
     (* The warm pass is sub-millisecond absolute time, so its ratio
        swings wildly on shared CI runners: demand only that caching
        still pays for itself by an order of magnitude less than the
        committed figure, alongside the usual 10% throughput band. *)
     if throughput < 0.9 *. base_tp then begin
       Printf.printf "server_bench check FAILED: throughput regressed >10%%\n";
       exit 1
     end
     else if speedup < base_su /. 10.0 || speedup < 2.0 then begin
       Printf.printf "server_bench check FAILED: cache speedup collapsed\n";
       exit 1
     end
     else Printf.printf "server_bench check passed\n%!")
