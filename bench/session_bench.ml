(* Incremental-session speedup harness.

     dune exec bench/session_bench.exe
     dune exec bench/session_bench.exe -- --workers 4 --queries 8
     dune exec bench/session_bench.exe -- --check BENCH_session.json

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

   Results go to BENCH_session.json ([--json PATH] redirects);
   [--check PATH] re-measures and exits 1 if the speedup fell below
   the 5x floor or more than 10% below the committed number — the CI
   soft gate. *)

let arg_value name conv default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then conv Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let workers = arg_value "--workers" int_of_string 2
let scale = arg_value "--scale" float_of_string 1.0
let queries = arg_value "--queries" int_of_string 8
let check_path = arg_value "--check" Option.some None
let json_path = arg_value "--json" Fun.id "BENCH_session.json"
let dim n = max 4 (int_of_float (float_of_int n *. scale))

let suite =
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

let verdict_name = function
  | Server.Sat _ -> "SAT"
  | Server.Unsat -> "UNSAT"
  | Server.Timeout -> "TIMEOUT"
  | Server.Failed _ -> "FAILED"

let ok = function
  | Ok v -> v
  | Error r -> failwith ("rejected: " ^ r)

(* One one-shot job per (instance, query); submit everything, then
   await — the worker pool runs the batch at full width. *)
let run_cold engine =
  let t0 = Sat.Wall.now () in
  let tickets =
    List.concat_map
      (fun (name, f) ->
        List.init queries (fun q ->
            (name, ok (Server.submit engine (cold_formula f q)))))
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
let run_incremental engine =
  let t0 = Sat.Wall.now () in
  let opened =
    List.map
      (fun (name, f) ->
        let sid = ok (Server.open_session engine) in
        ignore
          (ok
             (Server.session_submit engine sid
                (Server.Session.Add (Array.to_list f.Cnf.Formula.clauses))));
        let solves =
          List.init queries (fun q ->
              if q > 0 then
                ignore
                  (ok
                     (Server.session_submit engine sid
                        (Server.Session.Assume [| query_lit f q |])));
              ok (Server.submit_session_solve engine sid))
        in
        (name, sid, solves))
      suite
  in
  let answers =
    List.concat_map
      (fun (name, sid, solves) ->
        let res =
          List.map
            (fun t -> (name, Server.session_await engine t))
            solves
        in
        ignore (ok (Server.close_session engine sid));
        res)
      opened
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
  let total = List.length suite * queries in
  Printf.printf
    "session bench: %d instances x %d queries = %d solves, %d workers\n%!"
    (List.length suite) queries total workers;
  let config =
    {
      Server.workers;
      queue_capacity = max 64 (2 * total);
      cache_capacity = 2 * total;
      warm_capacity = 0;  (* isolate incremental-vs-cold, no warm resume *)
      mode = Server.Direct;
      limits = Sat.Solver.no_limits;
      default_deadline = None;
      session_capacity = max 8 (List.length suite);
      session_ttl = None;
      cube = None;
      dispatch = None;
    }
  in
  let engine = Server.create ~config () in
  let cold_wall, cold_answers = run_cold engine in
  let incr_wall, incr_answers = run_incremental engine in
  let stats = Server.stats engine in
  Server.shutdown engine;
  (* The probes are assumption literals over an UNSAT base, so both
     passes must agree query by query. *)
  List.iter2
    (fun (cn, (ca : Server.answer)) (sn, (sa : Server.Session.answer)) ->
      let cv = verdict_name ca.Server.verdict
      and sv = verdict_of_outcome sa.Server.Session.outcome in
      if cn <> sn || cv <> sv then
        failwith
          (Printf.sprintf "verdict mismatch: cold %s=%s vs session %s=%s" cn
             cv sn sv))
    cold_answers incr_answers;
  let speedup = cold_wall /. incr_wall in
  Printf.printf "cold pass:        %.3fs (%d one-shot jobs)\n" cold_wall total;
  Printf.printf "incremental pass: %.3fs (%d session solves)\n" incr_wall
    total;
  Printf.printf "speedup: %.1fx\n%!" speedup;
  let per_instance =
    List.map
      (fun (name, _) ->
        let wall which =
          List.fold_left
            (fun acc (n, w) -> if n = name then acc +. w else acc)
            0.0 which
        in
        let cold =
          wall
            (List.map
               (fun (n, (a : Server.answer)) -> (n, a.Server.solve_wall))
               cold_answers)
        and incr =
          wall
            (List.map
               (fun (n, (a : Server.Session.answer)) -> (n, a.Server.Session.solve_wall))
               incr_answers)
        in
        (name, cold, incr))
      suite
  in
  List.iter
    (fun (name, cold, incr) ->
      Printf.printf "  %-14s cold=%.3fs incremental=%.3fs\n" name cold incr)
    per_instance;
  match check_path with
  | None ->
    let oc = open_out json_path in
    Printf.fprintf oc
      "{\n\
      \  \"workers\": %d,\n\
      \  \"instances\": %d,\n\
      \  \"queries_per_instance\": %d,\n\
      \  \"total_solves\": %d,\n\
      \  \"cold_wall_seconds\": %.3f,\n\
      \  \"incremental_wall_seconds\": %.4f,\n\
      \  \"incremental_speedup\": %.1f,\n\
      \  \"per_instance\": [\n%s\n  ],\n\
      \  \"final_stats\": %s\n\
       }\n"
      workers (List.length suite) queries total cold_wall incr_wall speedup
      (String.concat ",\n"
         (List.map
            (fun (name, cold, incr) ->
              Printf.sprintf
                "    {\"name\": \"%s\", \"cold_solve_seconds\": %.3f, \
                 \"incremental_solve_seconds\": %.4f}"
                name cold incr)
            per_instance))
      (Server.Metrics.to_json stats);
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
    let base_su = committed "incremental_speedup" in
    Printf.printf "committed: %.1fx incremental speedup\nfresh:     %.1fx\n%!"
      base_su speedup;
    (* The incremental pass is a few milliseconds absolute, so the
       ratio is noisy on shared runners: hold the 5x floor the design
       promises, and the usual 10% band against the committed figure
       only down to that floor. *)
    if speedup < 5.0 then begin
      Printf.printf "session_bench check FAILED: speedup below the 5x floor\n";
      exit 1
    end
    else if speedup < 0.9 *. base_su && speedup < base_su -. 1.0 then begin
      Printf.printf
        "session_bench check FAILED: speedup regressed >10%% vs committed\n";
      exit 1
    end
    else Printf.printf "session_bench check passed\n%!"
