(* eda4sat — command-line front end of the EDA-driven SAT preprocessing
   framework.

     eda4sat solve      -i problem.cnf [--no-preprocess] [--timeout S]
     eda4sat portfolio  -i problem.cnf [--jobs N] [--share-lbd LBD]
     eda4sat cube       -i problem.cnf [--cubes N] [--jobs N]
     eda4sat serve      [--workers N] [--queue N] [--cache N] [--listen A]
     eda4sat preprocess -i problem.cnf -o simplified.cnf [...]
     eda4sat train      --episodes N --out agent.weights
     eda4sat generate   --family php --out file.cnf [...]
     eda4sat tables     [--table N] [--scale S] [--timeout S] [--agent F]

   Inputs ending in .cnf/.dimacs are DIMACS; .aag files are ASCII
   AIGER circuits.

   'solve', 'portfolio' and 'cube' exit with the SAT-competition
   convention: 10 = SATISFIABLE, 20 = UNSATISFIABLE, 0 = UNKNOWN
   (timeout). *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

(* Malformed input is a command-line error, not a crash: one line on
   stderr and cmdliner's CLI-error exit code, the one a missing [-i]
   file already gets. *)
let input_error what msg =
  Printf.eprintf "eda4sat: %s: %s\n%!" what msg;
  exit Cmd.Exit.cli_error

(* A [p cnf] header beyond the solver's variable limit is bad input
   too, rejected here before any transform sizes a table by it. *)
let read_instance path =
  try
    if Filename.check_suffix path ".aag" then
      Eda4sat.Instance.of_circuit ~name:(Filename.basename path)
        (Aig.Aiger_io.read_file path)
    else begin
      let f = Cnf.Dimacs.read_file path in
      Sat.Solver.check_num_vars f.Cnf.Formula.num_vars;
      Eda4sat.Instance.of_cnf ~name:(Filename.basename path) f
    end
  with
  | Cnf.Dimacs.Parse_error msg | Aig.Aiger_io.Parse_error msg
  | Invalid_argument msg ->
    input_error path msg

let limits_of_timeout timeout =
  { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some timeout }

let load_agent = function
  | None -> None
  | Some path ->
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let agent =
      Rl.Dqn.create
        (Eda4sat.Trainer.dqn_config_for Eda4sat.Env.default_config)
    in
    Rl.Dqn.load_weights_string agent s;
    Some agent

let pipeline_config ~agent ~mapper ~recipe =
  let base =
    match recipe with
    | Some r -> (
      match Synth.Recipe.parse r with
      | Ok ops ->
        { (Eda4sat.Pipeline.ours ()) with
          Eda4sat.Pipeline.recipe = Eda4sat.Pipeline.Fixed ops }
      | Error e -> failwith e)
    | None -> Eda4sat.Pipeline.ours ?agent ()
  in
  match mapper with
  | "conventional" ->
    { base with Eda4sat.Pipeline.mapper = Lutmap.Mapper.default_config }
  | "branching" ->
    { base with Eda4sat.Pipeline.mapper = Lutmap.Mapper.cost_customized_config }
  | m -> failwith ("unknown mapper: " ^ m)

(* --- common arguments ---------------------------------------------- *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input instance (.cnf or .aag).")

let timeout_arg =
  Arg.(
    value & opt float 300.0
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Solver time budget.")

let mapper_arg =
  Arg.(
    value & opt string "branching"
    & info [ "mapper" ] ~docv:"KIND"
        ~doc:"LUT mapper cost: 'branching' (cost-customized) or \
              'conventional'.")

let recipe_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "recipe" ] ~docv:"OPS"
        ~doc:"Fixed synthesis recipe, e.g. 'rewrite;resub;balance'. \
              Overrides the agent.")

let agent_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "agent" ] ~docv:"FILE"
        ~doc:"Trained agent weights (from 'eda4sat train').")

(* SAT-competition exit codes, used by 'solve' and 'portfolio'. *)
let exit_sat = 10
let exit_unsat = 20
let exit_unknown = 0

(* Commands without a verdict exit 0 on success. *)
let returns_ok t = Term.(const (fun () -> 0) $ t)

(* DIMACS "v" lines for a model over the original variables. *)
let print_model m =
  let buf = Buffer.create (4 * Array.length m) in
  Buffer.add_char buf 'v';
  Array.iteri
    (fun i b ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (if b then i + 1 else -(i + 1))))
    m;
  Buffer.add_string buf " 0";
  print_endline (Buffer.contents buf)

let write_proof path proof =
  match (path, proof) with
  | Some path, Some p ->
    let oc = open_out path in
    output_string oc (Sat.Proof.to_string p);
    close_out oc;
    Printf.printf "c DRAT proof written to %s (%d steps%s)\n" path
      (Sat.Proof.num_steps p)
      (if Sat.Proof.sealed p then "" else "; incomplete — answer not UNSAT")
  | _ -> ()

(* The verdict of 'solve', 'portfolio' and 'cube': the "s" line, then
   the stats line, answering the exit code.  An UNSAT writes the proof
   first when one was asked for; a SAT prints its model with [model]. *)
let finish ?(model = false) ?proof_file ?proof report =
  let code =
    match report.Eda4sat.Pipeline.result with
    | Sat.Solver.Sat m ->
      print_endline "s SATISFIABLE";
      if model then print_model m;
      exit_sat
    | Sat.Solver.Unsat ->
      write_proof proof_file proof;
      print_endline "s UNSATISFIABLE";
      exit_unsat
    | Sat.Solver.Unknown ->
      print_endline "s UNKNOWN";
      exit_unknown
  in
  Format.printf "c %a@." Sat.Solver.pp_stats
    report.Eda4sat.Pipeline.solver_stats;
  code

(* --- solve ---------------------------------------------------------- *)

let solve_cmd =
  let run verbose input timeout no_preprocess proof_file mapper recipe
      agent_file =
    setup_logs verbose;
    let inst = read_instance input in
    let limits = limits_of_timeout timeout in
    let cfg =
      if no_preprocess then Eda4sat.Pipeline.baseline
      else
        let agent = load_agent agent_file in
        pipeline_config ~agent ~mapper ~recipe
    in
    let proof = Option.map (fun _ -> Sat.Proof.create ()) proof_file in
    let report = Eda4sat.Pipeline.run ~limits ?proof cfg inst in
    Format.printf "%a@." Eda4sat.Pipeline.pp_report report;
    finish ?proof_file ?proof report
  in
  let no_preprocess =
    Arg.(
      value & flag
      & info [ "no-preprocess" ] ~doc:"Solve directly, skipping Algorithm 1.")
  in
  let proof_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "proof" ] ~docv:"FILE"
          ~doc:"On an UNSAT answer, write a DRAT proof to FILE.  The \
                proof refutes the CNF handed to the solver: the input \
                formula under --no-preprocess, the transformed CNF \
                otherwise.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Preprocess (by default) and solve an instance.")
    Term.(
      const run $ verbose_arg $ input_arg $ timeout_arg $ no_preprocess
      $ proof_file $ mapper_arg $ recipe_arg $ agent_arg)

(* --- portfolio ------------------------------------------------------- *)

let portfolio_cmd =
  let run verbose input timeout jobs share_lbd mapper recipe agent_file =
    setup_logs verbose;
    let inst = read_instance input in
    let limits = limits_of_timeout timeout in
    let agent = load_agent agent_file in
    let cfg = pipeline_config ~agent ~mapper ~recipe in
    let strategies = Eda4sat.Pipeline.portfolio_strategies ~jobs cfg inst in
    Printf.printf "c racing %d lanes (jobs=%d, share-lbd=%d):\n" jobs jobs
      share_lbd;
    List.iteri
      (fun i s -> Format.printf "c   lane %d: %a@." i Portfolio.Strategy.pp s)
      strategies;
    let report, outcome =
      Eda4sat.Pipeline.run_portfolio ~limits ~jobs ~share_lbd
        ~log:(fun msg -> Printf.printf "c %s\n%!" msg)
        cfg inst
    in
    (match outcome.Portfolio.Runner.winner with
     | Some w ->
       Format.printf "c winner: lane %d (%a)@." w Portfolio.Strategy.pp
         (List.nth strategies w)
     | None -> print_endline "c no winner");
    Printf.printf "c shared clauses: published=%d delivered=%d dropped=%d\n"
      outcome.Portfolio.Runner.shared_published
      outcome.Portfolio.Runner.shared_delivered
      outcome.Portfolio.Runner.shared_dropped;
    Printf.printf "c race wall time: %.3fs\n" outcome.Portfolio.Runner.wall;
    finish report
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains to race (1 = deterministic sequential).")
  in
  let share_lbd =
    Arg.(value & opt int 4
         & info [ "share-lbd" ] ~docv:"LBD"
             ~doc:"Maximum glue of shared learnt clauses (0 disables \
                   sharing).")
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Race diversified solver configurations — including EDA \
             preprocessing lanes — with first-wins cancellation and \
             learnt-clause sharing.")
    Term.(const run $ verbose_arg $ input_arg $ timeout_arg $ jobs $ share_lbd
          $ mapper_arg $ recipe_arg $ agent_arg)

(* --- cube ------------------------------------------------------------- *)

let cube_cmd =
  let run verbose input timeout cubes jobs probe_limit proof_file =
    setup_logs verbose;
    let inst = read_instance input in
    let limits = limits_of_timeout timeout in
    let proof = Option.map (fun _ -> Sat.Proof.create ()) proof_file in
    let report, cr =
      Eda4sat.Pipeline.solve_cube ~limits ~cubes ~probe_limit ~jobs ?proof
        ~log:(fun msg -> Printf.printf "c %s\n%!" msg)
        inst
    in
    let count p =
      Array.fold_left
        (fun n o -> if p o then n + 1 else n)
        0 cr.Portfolio.Cuber.outcomes
    in
    Printf.printf
      "c cubes=%d (dead=%d) refuted=%d cancelled=%d solved=%d steals=%d \
       wall=%.3fs\n"
      (Array.length cr.Portfolio.Cuber.cubes)
      (Array.fold_left
         (fun n c -> if c.Portfolio.Cuber.dead then n + 1 else n)
         0 cr.Portfolio.Cuber.cubes)
      (count (fun o -> o = Portfolio.Cuber.Cube_refuted))
      (count (fun o -> o = Portfolio.Cuber.Cube_cancelled))
      cr.Portfolio.Cuber.solved cr.Portfolio.Cuber.steals
      cr.Portfolio.Cuber.wall;
    (match cr.Portfolio.Cuber.failure with
     | Some msg -> Printf.printf "c cube failure: %s\n" msg
     | None -> ());
    (* solve_cube publishes Unsat only when every cube is refuted;
       with --proof the stitched stream is sealed through the empty
       clause. *)
    finish ~model:true ?proof_file ?proof report
  in
  let cubes =
    Arg.(value & opt int 8
         & info [ "cubes" ] ~docv:"N"
             ~doc:"Target cube count; the lookahead tree splits until it \
                   has N leaves (rounded to the tree shape).")
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "j"; "cube-jobs"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains conquering cubes (1 = deterministic \
                   sequential, bit-identical cube order).")
  in
  let probe_limit =
    Arg.(value & opt int 32
         & info [ "cube-probe-limit" ] ~docv:"N"
             ~doc:"Lookahead probe budget: candidate split variables \
                   propagated (both phases) per tree node.")
  in
  let proof_file =
    Arg.(value & opt (some string) None
         & info [ "proof" ] ~docv:"FILE"
             ~doc:"On UNSAT, write the stitched cube→conquer→stitch DRAT \
                   stream (each refuted cube's clauses, then the \
                   case-split tree bottom-up to the empty clause).")
  in
  Cmd.v
    (Cmd.info "cube"
       ~doc:"Cube-and-conquer: lookahead-split the instance into cubes, \
             conquer them in parallel with work stealing and first-SAT \
             cancellation, and stitch per-cube refutations into one \
             checkable DRAT proof.")
    Term.(const run $ verbose_arg $ input_arg $ timeout_arg $ cubes $ jobs
          $ probe_limit $ proof_file)

(* --- serve ------------------------------------------------------------ *)

(* "HOST:PORT" (":PORT" and "PORT" bind every interface). *)
let parse_listen spec =
  let bad () = input_error "--listen" (spec ^ ": expected HOST:PORT") in
  match String.rindex_opt spec ':' with
  | None -> (
    match int_of_string_opt spec with
    | Some port -> ("0.0.0.0", port)
    | None -> bad ())
  | Some i -> (
    let host = String.sub spec 0 i in
    let host = if host = "" then "0.0.0.0" else host in
    match
      int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
    with
    | Some port -> (host, port)
    | None -> bad ())

let serve_cmd =
  let run verbose workers queue cache warm timeout deadline_ms sessions
      session_ttl_ms cube_conflicts cube_count cube_jobs cube_probe_limit
      listen unix_path stdio max_clients conn_buffer quota priority_floor
      tenant_specs =
    setup_logs verbose;
    let cube =
      if cube_conflicts <= 0 then None
      else
        Some
          {
            Server.cube_trigger = cube_conflicts;
            cube_count;
            cube_jobs;
            cube_probe_limit;
          }
    in
    let config =
      {
        Server.workers;
        queue_capacity = queue;
        cache_capacity = cache;
        warm_capacity = warm;
        limits = limits_of_timeout timeout;
        default_deadline = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
        session_capacity = sessions;
        session_ttl =
          (match session_ttl_ms with
           | Some ms when ms <= 0.0 -> None (* 0 disables TTL eviction *)
           | ttl -> Option.map (fun ms -> ms /. 1000.0) ttl);
        cube;
      }
    in
    let tenant_limits =
      List.map
        (fun spec ->
          match Net.Tenant.parse_spec spec with
          | Ok x -> x
          | Error msg -> input_error "--tenant" msg)
        tenant_specs
    in
    let listen = Option.map parse_listen listen in
    let net_config =
      {
        Net.Event_loop.default_config with
        max_clients;
        conn_buffer;
        default_limits = { Net.Tenant.quota; priority_floor };
        tenant_limits;
      }
    in
    let engine =
      try Server.create ~config ()
      with Invalid_argument msg -> input_error "serve" msg
    in
    Fun.protect
      ~finally:(fun () -> Server.shutdown engine)
      (fun () ->
        let loop = Net.Event_loop.create ~config:net_config engine in
        (match listen with
         | Some (host, port) ->
           let host, port = Net.Event_loop.add_tcp loop ~host ~port in
           Printf.printf "c listening on %s:%d\n%!" host port
         | None -> ());
        (match unix_path with
         | Some path ->
           Net.Event_loop.add_unix loop path;
           Printf.printf "c listening on unix:%s\n%!" path
         | None -> ());
        if stdio || (listen = None && unix_path = None) then
          Net.Event_loop.add_pipe loop ~fd_in:Unix.stdin
            ~fd_out:Unix.stdout;
        (* A client that vanishes mid-write must look like EPIPE on the
           loop's non-blocking write, never kill the process. *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let drain _ = Net.Event_loop.request_drain loop in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
        Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
        Net.Event_loop.run loop);
    0
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; further submissions are \
                   REJECTED (backpressure).")
  in
  let cache =
    Arg.(value & opt int 512
         & info [ "cache" ] ~docv:"N" ~doc:"Result cache capacity (LRU).")
  in
  let warm =
    Arg.(value & opt int 256
         & info [ "warm" ] ~docv:"N"
             ~doc:"Warm-start snapshot cache capacity (LRU): a \
                   resubmitted formula whose last solve timed out \
                   resumes from that solve's learnt clauses, phases and \
                   activity order instead of restarting (0 disables).  \
                   A decided formula leaves no snapshot: once its \
                   verdict leaves the result cache (with $(b,--cache) 1, \
                   at the next decided job), a resubmission re-solves \
                   cold.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-job deadline when a SOLVE line gives none.")
  in
  let sessions =
    Arg.(value & opt int 64
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Maximum live incremental sessions; OPEN past the \
                   bound LRU-evicts an idle session or is REJECTED.")
  in
  let session_ttl_ms =
    Arg.(value & opt (some float) (Some 600_000.0)
         & info [ "session-ttl-ms" ] ~docv:"MS"
             ~doc:"Evict sessions idle this long (0 disables).")
  in
  let cube_conflicts =
    Arg.(value & opt int 0
         & info [ "cube-conflicts" ] ~docv:"N"
             ~doc:"Hardness trigger for cube-and-conquer: a job still \
                   open after N conflicts is re-solved by cubing; its \
                   remaining budget is spent conquering cubes in \
                   parallel (0 disables cubing).")
  in
  let cube_count =
    Arg.(value & opt int 8
         & info [ "cubes" ] ~docv:"N"
             ~doc:"Target cube count per escalated job \
                   (--cube-conflicts).")
  in
  let cube_jobs =
    Arg.(value & opt int 4
         & info [ "cube-jobs" ] ~docv:"N"
             ~doc:"Worker domains conquering an escalated job's cubes \
                   (1 = sequential).")
  in
  let cube_probe_limit =
    Arg.(value & opt int 32
         & info [ "cube-probe-limit" ] ~docv:"N"
             ~doc:"Lookahead probe budget per cube-tree node \
                   (--cube-conflicts).")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Accept TCP connections on HOST:PORT (port 0 picks a \
                   free port; the bound address is announced as 'c \
                   listening on HOST:PORT').")
  in
  let unix_path =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH"
             ~doc:"Accept connections on a Unix-domain socket at PATH.")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Also serve stdin/stdout as one more connection \
                   (implied when neither --listen nor --unix is \
                   given).")
  in
  let max_clients =
    Arg.(value & opt int 256
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent connections; further accepts answer \
                   REJECTED overloaded and close.")
  in
  let conn_buffer =
    Arg.(value & opt int (4 * 1024 * 1024)
         & info [ "conn-buffer" ] ~docv:"BYTES"
             ~doc:"Per-connection write-buffer bound.  Past half of it \
                   new commands are REJECTED overloaded; past all of \
                   it the slow client is disconnected.")
  in
  let quota =
    Arg.(value & opt int 0
         & info [ "quota" ] ~docv:"N"
             ~doc:"Default per-client in-flight command quota (0 = \
                   unlimited); commands past it answer REJECTED \
                   quota.")
  in
  let priority_floor =
    Arg.(value & opt int 0
         & info [ "priority-floor" ] ~docv:"P"
             ~doc:"Minimum effective priority of every submitted job.")
  in
  let tenant_specs =
    Arg.(value & opt_all string []
         & info [ "tenant" ] ~docv:"NAME=QUOTA[:FLOOR]"
             ~doc:"Per-client override of quota and priority floor \
                   (repeatable); clients declare themselves with the \
                   CLIENT verb.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the concurrent solve service over stdin/stdout, TCP \
             (--listen) and Unix-domain sockets (--unix): SOLVE <file> \
             [deadline_ms] [prio] per line, plus incremental sessions \
             (OPEN, then ADD/ASSUME/SOLVE/PUSH/POP/CLOSE <sid>), \
             PING/METRICS health probes and per-client quotas (CLIENT \
             <name>, --quota, --tenant); answers carry a cache/dedup \
             source tag; STATS prints a metrics JSON line; SIGTERM \
             drains gracefully.")
    Term.(const run $ verbose_arg $ workers $ queue $ cache $ warm
          $ timeout_arg $ deadline_ms $ sessions
          $ session_ttl_ms $ cube_conflicts $ cube_count $ cube_jobs
          $ cube_probe_limit $ listen $ unix_path $ stdio $ max_clients
          $ conn_buffer $ quota $ priority_floor $ tenant_specs)

(* --- preprocess ------------------------------------------------------ *)

(* The lines 'preprocess' and 'map' both print: the recipe run and the
   AND counts before and after it. *)
let print_recipe ops before after =
  Printf.printf "recipe: %s\n" (Synth.Recipe.to_string ops);
  match (before, after) with
  | Some b, Some a ->
    Printf.printf "ands: %d -> %d\n" b.Aig.Stats.area a.Aig.Stats.area
  | _ -> ()

let preprocess_cmd =
  let run verbose input output mapper recipe agent_file =
    setup_logs verbose;
    let inst = read_instance input in
    let agent = load_agent agent_file in
    let f, report =
      Eda4sat.Pipeline.transform (pipeline_config ~agent ~mapper ~recipe) inst
    in
    Cnf.Dimacs.write_file f output;
    Format.printf "%a@." Eda4sat.Pipeline.pp_report report;
    print_recipe report.Eda4sat.Pipeline.recipe_used
      report.Eda4sat.Pipeline.aig_before report.Eda4sat.Pipeline.aig_after;
    Printf.printf "wrote %s (%d vars, %d clauses)\n" output
      f.Cnf.Formula.num_vars
      (Cnf.Formula.num_clauses f)
  in
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Simplified DIMACS output.")
  in
  Cmd.v
    (Cmd.info "preprocess"
       ~doc:"Run Algorithm 1 and write the simplified CNF for an external \
             solver.")
    (returns_ok
       Term.(const run $ verbose_arg $ input_arg $ output_arg $ mapper_arg
             $ recipe_arg $ agent_arg))

(* --- train ----------------------------------------------------------- *)

let train_cmd =
  let run episodes out scale count =
    let instances = Workloads.Suites.training_set ~scale ~count () in
    Printf.printf "training on %d generated LEC miters, %d episodes...\n%!"
      count episodes;
    let agent, history =
      Eda4sat.Trainer.train instances ~episodes
        ~on_episode:(fun p ->
          if p.Eda4sat.Trainer.episode mod 10 = 0 then
            Printf.printf "  episode %4d reward %+.3f\n%!"
              p.Eda4sat.Trainer.episode p.Eda4sat.Trainer.reward)
    in
    Printf.printf "final 20-episode average reward: %+.3f\n"
      (Eda4sat.Trainer.average_reward history 20);
    let oc = open_out out in
    output_string oc (Rl.Dqn.save_string agent);
    close_out oc;
    Printf.printf "weights written to %s\n" out
  in
  let episodes =
    Arg.(value & opt int 200
         & info [ "episodes" ] ~docv:"N" ~doc:"Training episodes.")
  in
  let out =
    Arg.(value & opt string "agent.weights"
         & info [ "out" ] ~docv:"FILE" ~doc:"Weight file to write.")
  in
  let scale =
    Arg.(value & opt float 0.4
         & info [ "scale" ] ~docv:"S" ~doc:"Training instance size scale.")
  in
  let count =
    Arg.(value & opt int 24
         & info [ "count" ] ~docv:"N" ~doc:"Training instance count.")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train the RL logic-synthesis agent (§3.2).")
    (returns_ok Term.(const run $ episodes $ out $ scale $ count))

(* --- generate -------------------------------------------------------- *)

let generate_cmd =
  let run family out seed size =
    match family with
    | "lec" ->
      let g =
        Workloads.Lec.generate ~seed ~num_pis:24 ~num_ands:size ()
      in
      Aig.Aiger_io.write_file g out;
      Printf.printf "wrote LEC miter %s (%d ANDs)\n" out (Aig.Graph.num_ands g)
    | "php" ->
      Cnf.Dimacs.write_file
        (Workloads.Satcomp.pigeonhole ~pigeons:size ~holes:(size - 1))
        out;
      Printf.printf "wrote php(%d,%d) to %s\n" size (size - 1) out
    | "r3sat" ->
      Cnf.Dimacs.write_file
        (Workloads.Satcomp.random_ksat ~seed ~num_vars:size
           ~num_clauses:(size * 9 / 2) ~k:3)
        out;
      Printf.printf "wrote random 3-SAT to %s\n" out
    | "xor" ->
      Cnf.Dimacs.write_file
        (Workloads.Satcomp.xor_cnf ~seed ~num_vars:size
           ~num_xors:(size * 19 / 20) ~width:4)
        out;
      Printf.printf "wrote CNF-XOR to %s\n" out
    | "coloring" ->
      Cnf.Dimacs.write_file
        (Workloads.Satcomp.coloring ~seed ~vertices:size
           ~edges:(size * 23 / 10) ~colors:3)
        out;
      Printf.printf "wrote 3-coloring to %s\n" out
    | "roundrobin" ->
      Cnf.Dimacs.write_file (Workloads.Satcomp.round_robin ~teams:size ()) out;
      Printf.printf "wrote round-robin(%d) to %s\n" size out
    | f -> input_error "--family" ("unknown family: " ^ f)
  in
  let family =
    Arg.(
      value & opt string "lec"
      & info [ "family" ] ~docv:"NAME"
          ~doc:"lec | php | r3sat | xor | coloring | roundrobin")
  in
  let out =
    Arg.(value & opt string "instance.cnf"
         & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let size =
    Arg.(value & opt int 500
         & info [ "size" ] ~docv:"N" ~doc:"Family-specific size parameter.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate benchmark instances to files.")
    (returns_ok Term.(const run $ family $ out $ seed $ size))

(* --- tables ----------------------------------------------------------- *)

let tables_cmd =
  let run table scale timeout agent_file episodes =
    let ctx =
      {
        Experiments.Tables.default_ctx with
        Experiments.Tables.scale;
        limits = limits_of_timeout timeout;
      }
    in
    let ctx =
      match (load_agent agent_file, episodes) with
      | Some a, _ -> { ctx with Experiments.Tables.agent = Some a }
      | None, Some n ->
        Printf.printf "training an agent for %d episodes...\n%!" n;
        { ctx with
          Experiments.Tables.agent =
            Some (Experiments.Tables.train_agent ~episodes:n ctx) }
      | None, None -> ctx
    in
    match table with
    | None -> print_string (Experiments.Tables.run_all ctx)
    | Some n ->
      print_string
        (Experiments.Table.render (Experiments.Tables.table ctx n))
  in
  let table =
    Arg.(value & opt (some int) None
         & info [ "table" ] ~docv:"N" ~doc:"Regenerate one table (1..7).")
  in
  let scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~docv:"S" ~doc:"Workload size scale.")
  in
  let episodes =
    Arg.(value & opt (some int) None
         & info [ "train-episodes" ] ~docv:"N"
             ~doc:"Train a fresh agent for the RL columns.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables and figures.")
    (returns_ok
       Term.(const run $ table $ scale $ timeout_arg $ agent_arg $ episodes))

(* --- map --------------------------------------------------------------- *)

let map_cmd =
  let run input output mapper recipe agent_file =
    let inst = read_instance input in
    let agent = load_agent agent_file in
    let cfg = pipeline_config ~agent ~mapper ~recipe in
    let g0 =
      Eda4sat.Instance.to_aig ~advanced:cfg.Eda4sat.Pipeline.advanced_recovery
        inst
    in
    let g, ops, _, _ = Eda4sat.Pipeline.synthesize cfg g0 in
    let nl = Lutmap.Mapper.run ~config:cfg.Eda4sat.Pipeline.mapper g in
    Lutmap.Blif.write_file nl output;
    Format.printf "mapped: %a -> %a; wrote %s@." Aig.Graph.pp_stats g0
      Lutmap.Netlist.pp_stats nl output;
    print_recipe ops
      (Some (Aig.Stats.snapshot g0))
      (Some (Aig.Stats.snapshot g))
  in
  let output_arg =
    Arg.(
      value & opt string "mapped.blif"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"BLIF output file.")
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Synthesize and LUT-map an instance, writing a BLIF netlist.")
    (returns_ok
       Term.(const run $ input_arg $ output_arg $ mapper_arg $ recipe_arg
             $ agent_arg))

(* 'solve' and 'portfolio' carry SAT-competition exit codes; every
   other command evaluates to 0 on success.  [Cmd.eval'] propagates
   the integer verbatim. *)
let () =
  let doc = "EDA-driven preprocessing for SAT solving" in
  let info = Cmd.info "eda4sat" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
                     [ solve_cmd; portfolio_cmd; cube_cmd; serve_cmd;
                       preprocess_cmd; train_cmd; generate_cmd;
                       tables_cmd; map_cmd ]))
