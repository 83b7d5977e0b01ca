let fmt_f = Table.fmt_f

let miter seed =
  Workloads.Lec.generate ~seed ~num_pis:20 ~num_ands:500 ()

let avg xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Monotonic wall clock, as everywhere else timing is reported: CPU
   time ([Sys.time]) over-counts once domains run in parallel. *)
let timed f =
  let t0 = Sat.Wall.now () in
  let x = f () in
  (x, Sat.Wall.now () -. t0)

let rewrite_mffc ~seeds =
  let measure use_mffc =
    let sizes, times =
      List.split
        (List.map
           (fun seed ->
             let g = miter seed in
             let g', t = timed (fun () -> Synth.Rewrite.run ~use_mffc g) in
             (float_of_int (Aig.Graph.num_ands g'), t))
           seeds)
    in
    (avg sizes, avg times)
  in
  let with_size, with_time = measure true in
  let without_size, without_time = measure false in
  let orig =
    avg (List.map (fun s -> float_of_int (Aig.Graph.num_ands (miter s))) seeds)
  in
  {
    Table.title = "Ablation: rewrite MFFC credit";
    header = [ "Setting"; "avg ANDs after"; "avg time (s)" ];
    rows =
      [
        [ "original"; fmt_f orig; "-" ];
        [ "rewrite w/ MFFC credit"; fmt_f with_size; fmt_f with_time ];
        [ "rewrite, local gain only"; fmt_f without_size; fmt_f without_time ];
      ];
    notes =
      [ "MFFC credit lets a cut replacement pay for the whole cone it \
         frees; without it only strictly-local savings are visible" ];
  }

let resub_budget ~seeds =
  let measure conflict_limit =
    let stats =
      List.map
        (fun seed ->
          let g = miter seed in
          let config =
            { Synth.Resub.default_config with
              Synth.Resub.conflict_limit }
          in
          let (g', _, proven, _), t =
            timed (fun () -> Synth.Resub.run_with_counts ~config g)
          in
          (float_of_int (Aig.Graph.num_ands g'), float_of_int proven, t))
        seeds
    in
    let sizes = List.map (fun (s, _, _) -> s) stats in
    let proofs = List.map (fun (_, p, _) -> p) stats in
    let times = List.map (fun (_, _, t) -> t) stats in
    (avg sizes, avg proofs, avg times)
  in
  let rows =
    List.map
      (fun budget ->
        let size, proofs, time = measure budget in
        [ string_of_int budget; fmt_f size; fmt_f proofs; fmt_f time ])
      [ 1; 10; 100; 1000 ]
  in
  {
    Table.title = "Ablation: resub (FRAIG) SAT conflict budget";
    header = [ "Conflict limit"; "avg ANDs after"; "avg merges proven";
               "avg time (s)" ];
    rows;
    notes =
      [ "a tiny budget misses equivalences (fewer merges, larger \
         result); the default 1000 saturates on these miters" ];
  }

let mapper_passes ~seeds =
  let measure area_passes =
    let stats =
      List.map
        (fun seed ->
          let g = Synth.Rewrite.run (miter seed) in
          let config =
            { Lutmap.Mapper.cost_customized_config with
              Lutmap.Mapper.area_passes }
          in
          let nl, t = timed (fun () -> Lutmap.Mapper.run ~config g) in
          ( float_of_int (Lutmap.Netlist.num_luts nl),
            float_of_int
              (Lutmap.Mapper.total_cost Lutmap.Cost.branching nl),
            float_of_int (Lutmap.Netlist.depth nl),
            t ))
        seeds
    in
    ( avg (List.map (fun (a, _, _, _) -> a) stats),
      avg (List.map (fun (_, b, _, _) -> b) stats),
      avg (List.map (fun (_, _, c, _) -> c) stats),
      avg (List.map (fun (_, _, _, d) -> d) stats) )
  in
  let rows =
    List.map
      (fun passes ->
        let luts, cost, depth, time = measure passes in
        [ string_of_int passes; fmt_f luts; fmt_f cost; fmt_f depth;
          fmt_f time ])
      [ 0; 1; 2; 3 ]
  in
  {
    Table.title = "Ablation: mapper area-recovery passes";
    header = [ "Area passes"; "avg LUTs"; "avg branching cost"; "avg depth";
               "avg time (s)" ];
    rows;
    notes =
      [ "pass 0 is the delay-only mapping; recovery passes trade \
         nothing in depth for lower branching cost" ];
  }

let cut_width ~seeds =
  let rows =
    List.map
      (fun k ->
        let stats =
          List.map
            (fun seed ->
              let g = miter seed in
              let g', t = timed (fun () -> Synth.Rewrite.run ~k g) in
              (float_of_int (Aig.Graph.num_ands g'), t))
            seeds
        in
        [ string_of_int k;
          fmt_f (avg (List.map fst stats));
          fmt_f (avg (List.map snd stats)) ])
      [ 3; 4; 5; 6 ]
  in
  {
    Table.title = "Ablation: rewrite cut width k";
    header = [ "k"; "avg ANDs after"; "avg time (s)" ];
    rows;
    notes = [ "wider cuts see more restructurings but cost more per node" ];
  }

let branching_heuristic () =
  let cases =
    [
      ("php(8,7)", Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7);
      ( "r3sat(150,675)",
        Workloads.Satcomp.random_ksat ~seed:5 ~num_vars:150 ~num_clauses:675
          ~k:3 );
      ("miter-cnf(500)", Workloads.Suites.miter_cnf ~seed:9301 ~num_ands:500);
    ]
  in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some 60.0 }
  in
  let row (name, f) =
    let run heuristic =
      let _, st = Sat.Solver.solve ~limits ~heuristic f in
      st
    in
    let e = run `Evsids and l = run `Lrb in
    [ name;
      string_of_int e.Sat.Solver.decisions; fmt_f e.Sat.Solver.time;
      string_of_int l.Sat.Solver.decisions; fmt_f l.Sat.Solver.time ]
  in
  {
    Table.title = "Ablation: EVSIDS vs learning-rate branching (LRB, [23])";
    header = [ "Case"; "EVSIDS dec"; "EVSIDS s"; "LRB dec"; "LRB s" ];
    rows = List.map row cases;
    notes =
      [ "both heuristics share the rest of the CDCL machinery; the \
         decision counter is the paper's branching-complexity proxy" ];
  }

let run_all () =
  let seeds = [ 301; 302; 303 ] in
  String.concat "\n"
    [
      Table.render (rewrite_mffc ~seeds);
      Table.render (resub_budget ~seeds);
      Table.render (mapper_passes ~seeds);
      Table.render (cut_width ~seeds);
      Table.render (branching_heuristic ());
    ]
