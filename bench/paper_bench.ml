(* The [paper] suite: regenerates every table and data-bearing figure
   of the paper's evaluation (see DESIGN.md for the experiment index)
   and runs bechamel micro-benchmarks of the kernels behind each one.
   It prints tables and writes no JSON.

     dune exec bench/bench.exe -- paper                  # everything
     dune exec bench/bench.exe -- paper --table 3        # one table
     dune exec bench/bench.exe -- paper --no-micro       # tables only
     dune exec bench/bench.exe -- paper --scale 0.5 --timeout 60
     dune exec bench/bench.exe -- paper --train-episodes 40   # RL columns
     dune exec bench/bench.exe -- paper --table 2 --ablations  # + ablations *)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table / figure. *)

let micro_tests () =
  let open Bechamel in
  (* Shared inputs, prepared once. *)
  let miter = Workloads.Lec.generate ~seed:4242 ~num_pis:16 ~num_ands:300 () in
  let php = Workloads.Satcomp.pigeonhole ~pigeons:7 ~holes:6 in
  let php_cnf2aig = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let env_cfg = Eda4sat.Env.default_config in
  let agent = Rl.Dqn.create (Eda4sat.Trainer.dqn_config_for env_cfg) in
  let state = Array.make (Eda4sat.Env.state_dim env_cfg) 0.1 in
  let tts =
    Array.init 64 (fun i -> Aig.Tt.of_int 4 ((i * 2654435761) land 0xFFFF))
  in
  (* Parser inputs, serialized once: the php(8,7) CNF (~2.4k clauses)
     and the LEC miter as ASCII AIGER exercise the single-pass cursor
     parsers. *)
  let php_dimacs =
    Cnf.Dimacs.write_string (Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7)
  in
  let miter_aag = Aig.Aiger_io.write_string miter in
  [
    Test.make ~name:"table1-tseitin-encode"
      (Staged.stage (fun () -> ignore (Cnf.Tseitin.encode miter)));
    Test.make ~name:"table2-solver-php(7,6)"
      (Staged.stage (fun () -> ignore (Sat.Solver.solve php)));
    Test.make ~name:"table2-solver-php(7,6)-glucose"
      (Staged.stage (fun () ->
           ignore (Sat.Solver.solve ~restarts:`Glucose php)));
    Test.make ~name:"table3-resub-fraig"
      (Staged.stage (fun () -> ignore (Synth.Resub.run miter)));
    Test.make ~name:"table4-dqn-inference"
      (Staged.stage (fun () -> ignore (Rl.Dqn.q_values agent state)));
    Test.make ~name:"table5-lut-mapping"
      (Staged.stage (fun () ->
           ignore
             (Lutmap.Mapper.run ~config:Lutmap.Mapper.cost_customized_config
                miter)));
    Test.make ~name:"table6-cnf2aig"
      (Staged.stage (fun () -> ignore (Cnf.Cnf2aig.run php_cnf2aig)));
    Test.make ~name:"table7-cut-enumeration"
      (Staged.stage (fun () -> ignore (Aig.Cut.enumerate miter ~k:4 ~limit:8)));
    Test.make ~name:"figure2-rewrite"
      (Staged.stage (fun () -> ignore (Synth.Rewrite.run miter)));
    Test.make ~name:"figure2-balance"
      (Staged.stage (fun () -> ignore (Synth.Balance.run miter)));
    Test.make ~name:"figure4-branching-cost"
      (Staged.stage (fun () -> ignore (Array.map Lutmap.Cost.branching tts)));
    Test.make ~name:"parse-dimacs-php(8,7)"
      (Staged.stage (fun () -> ignore (Cnf.Dimacs.read_string php_dimacs)));
    Test.make ~name:"parse-aiger-ascii-miter"
      (Staged.stage (fun () -> ignore (Aig.Aiger_io.read_string miter_aag)));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"kernels" (micro_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure per_test ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_test [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
            if ns > 1e6 then Printf.printf "%-36s %10.3f ms/run\n" name (ns /. 1e6)
            else Printf.printf "%-36s %10.1f ns/run\n" name ns
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n" name)
        (List.sort compare rows))
    merged;
  print_newline ()

(* ------------------------------------------------------------------ *)

let run () =
  let arg = Harness.arg in
  let scale = arg "--scale" float_of_string 1.0 in
  let timeout = arg "--timeout" float_of_string 120.0 in
  let table = arg "--table" (fun s -> Some (int_of_string s)) None in
  let figure = arg "--figure" (fun s -> Some (int_of_string s)) None in
  let episodes =
    arg "--train-episodes" (fun s -> Some (int_of_string s)) None
  in
  let ctx =
    {
      Experiments.Tables.default_ctx with
      Experiments.Tables.scale;
      limits =
        { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some timeout };
    }
  in
  let ctx =
    match episodes with
    | None -> ctx
    | Some n ->
      Printf.printf "training the RL agent for %d episodes...\n%!" n;
      { ctx with
        Experiments.Tables.agent =
          Some (Experiments.Tables.train_agent ~episodes:n ctx) }
  in
  (match (table, figure) with
   | Some n, _ ->
     print_string (Experiments.Table.render (Experiments.Tables.table ctx n))
   | None, Some n ->
     print_string (Experiments.Table.render (Experiments.Tables.figure n))
   | None, None ->
     Printf.printf
       "Regenerating all tables and figures (scale %.2f, timeout %.0f s)\n\n%!"
       scale timeout;
     (match arg "--csv" Option.some None with
      | None -> print_string (Experiments.Tables.run_all ctx)
      | Some dir ->
        (* Write each table both to stdout and as CSV. *)
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        let emit name t =
          print_string (Experiments.Table.render t);
          let oc = open_out (Filename.concat dir (name ^ ".csv")) in
          output_string oc (Experiments.Table.to_csv t);
          close_out oc
        in
        List.iter
          (fun n ->
            emit (Printf.sprintf "table%d" n) (Experiments.Tables.table ctx n))
          [ 1; 2; 3; 4; 5; 6; 7 ];
        List.iter
          (fun n ->
            emit (Printf.sprintf "figure%d" n) (Experiments.Tables.figure n))
          [ 2; 4 ]));
  if Harness.flag "--ablations" || (table = None && figure = None) then begin
    print_endline "";
    print_string (Experiments.Ablations.run_all ())
  end;
  if (not (Harness.flag "--no-micro")) && table = None && figure = None then
    run_micro ();
  None

let suite =
  {
    Harness.name = "paper";
    doc = "the paper's tables, figures, ablations and micro-benchmarks";
    keys = [];
    run;
  }
