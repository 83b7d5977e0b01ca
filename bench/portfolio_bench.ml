(* Portfolio speedup harness.

   Races the 4-lane portfolio against each of its lanes run alone, on
   a suite chosen so that no single configuration is good everywhere:
   pigeonhole and LEC miter CNFs become easy after circuit recovery +
   synthesis + LUT re-encoding (the EDA lanes win; direct CDCL grinds
   or times out), while the large satisfiable random-3-SAT solves
   directly in milliseconds but costs the EDA lanes tens of seconds of
   transformation.  A fixed lane therefore pays a large penalty
   somewhere, and the race's worst case is a constant factor over the
   per-instance winner — which is the whole argument for the
   portfolio, and it holds even on one core where the domains merely
   timeslice.

     dune exec bench/bench.exe -- portfolio                # full suite
     dune exec bench/bench.exe -- portfolio --timeout 30
     dune exec bench/bench.exe -- portfolio --scale 0.5    # smaller suite

   Results (per-instance walls, per-lane totals, portfolio total) are
   written to BENCH_portfolio.json ([--json PATH] redirects).  The
   suite has no gate. *)

let jobs = 4

let instances ~scale =
  let dim = Harness.dim ~scale in
  [
    ( "lec-miter",
      Eda4sat.Instance.of_cnf ~name:"lec-miter"
        (Workloads.Suites.miter_cnf ~seed:7 ~num_ands:(dim 900)) );
    ( "php(10,9)",
      Eda4sat.Instance.of_cnf ~name:"php(10,9)"
        (Workloads.Satcomp.pigeonhole ~pigeons:10 ~holes:9) );
    ( "php(11,10)",
      Eda4sat.Instance.of_cnf ~name:"php(11,10)"
        (Workloads.Satcomp.pigeonhole ~pigeons:11 ~holes:10) );
    ( "r3sat-easy",
      Eda4sat.Instance.of_cnf ~name:"r3sat-easy"
        (Workloads.Satcomp.random_ksat ~seed:3 ~num_vars:(dim 6000)
           ~num_clauses:(dim 18000) ~k:3) );
    ( "parity-miter",
      Eda4sat.Instance.of_cnf ~name:"parity-miter"
        (Workloads.Suites.parity_miter_cnf ~num_bits:(dim 24)) );
  ]

let run () =
  let timeout = Harness.arg "--timeout" float_of_string 60.0 in
  let scale = Harness.arg "--scale" float_of_string 1.0 in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some timeout }
  in
  (* A lane that times out (or dies) is censored at the budget. *)
  let lane_wall (outcome : Portfolio.Runner.outcome) =
    match outcome.Portfolio.Runner.result with
    | Sat.Solver.Sat _ | Sat.Solver.Unsat -> outcome.Portfolio.Runner.wall
    | Sat.Solver.Unknown -> timeout
  in
  let cfg = Eda4sat.Pipeline.ours () in
  let lane_names = ref [] in
  let rows =
    List.map
      (fun (name, inst) ->
        let f = Eda4sat.Instance.direct_formula inst in
        let lanes = Eda4sat.Pipeline.portfolio_strategies ~jobs cfg inst in
        if !lane_names = [] then
          lane_names := List.map (fun s -> s.Portfolio.Strategy.name) lanes;
        Printf.printf "== %s (%d vars, %d clauses)\n%!" name
          f.Cnf.Formula.num_vars (Cnf.Formula.num_clauses f);
        let singles =
          List.map
            (fun lane ->
              let o = Portfolio.Runner.run ~jobs:1 ~limits [ lane ] f in
              let w = lane_wall o in
              Printf.printf "   %-24s %-8s %7.3fs\n%!"
                lane.Portfolio.Strategy.name
                (Harness.result_name o.Portfolio.Runner.result)
                w;
              (lane.Portfolio.Strategy.name, w, o.Portfolio.Runner.result))
            lanes
        in
        let o = Portfolio.Runner.run ~jobs ~limits lanes f in
        let pw = lane_wall o in
        Printf.printf "   %-24s %-8s %7.3fs (winner: %s)\n%!"
          (Printf.sprintf "portfolio(jobs=%d)" jobs)
          (Harness.result_name o.Portfolio.Runner.result)
          pw
          (match o.Portfolio.Runner.winner with
           | Some w -> (List.nth lanes w).Portfolio.Strategy.name
           | None -> "none");
        (name, singles, pw, o))
      (instances ~scale)
  in
  let totals =
    List.mapi
      (fun i lane ->
        ( lane,
          List.fold_left
            (fun acc (_, singles, _, _) ->
              let _, w, _ = List.nth singles i in
              acc +. w)
            0.0 rows ))
      !lane_names
  in
  let portfolio_total =
    List.fold_left (fun acc (_, _, pw, _) -> acc +. pw) 0.0 rows
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) totals in
  let best_name, best_total = List.hd sorted in
  let median_total =
    let n = List.length sorted in
    snd (List.nth sorted (n / 2))
  in
  Printf.printf "\n== Totals over the suite (timeout %.0fs)\n" timeout;
  List.iter (fun (l, t) -> Printf.printf "   %-24s %8.3fs\n" l t) totals;
  Printf.printf "   %-24s %8.3fs\n" "portfolio(jobs=4)" portfolio_total;
  Printf.printf "   best single: %s (%.3fs); median single: %.3fs\n" best_name
    best_total median_total;
  Printf.printf "   portfolio vs best single: %.2fx; vs median: %.2fx\n"
    (best_total /. portfolio_total)
    (median_total /. portfolio_total);
  let open Harness in
  let walls kvs = Obj (List.map (fun (l, w) -> (l, fixed 3 w)) kvs) in
  let lane_name w = Str (List.nth !lane_names w) in
  let instance (name, singles, pw, (o : Portfolio.Runner.outcome)) =
    Obj
      [
        ("name", Str name);
        ("single_walls", walls (List.map (fun (l, w, _) -> (l, w)) singles));
        ("portfolio_wall", fixed 3 pw);
        ("portfolio_result", Str (result_name o.Portfolio.Runner.result));
        ( "winner",
          Option.fold ~none:(Raw "null") ~some:lane_name
            o.Portfolio.Runner.winner );
        ( "shared",
          Obj
            [
              ("published", int o.Portfolio.Runner.shared_published);
              ("delivered", int o.Portfolio.Runner.shared_delivered);
              ("dropped", int o.Portfolio.Runner.shared_dropped);
            ] );
      ]
  in
  Some
    ( Obj
        [
          ("jobs", int jobs);
          ("timeout_seconds", Num (Printf.sprintf "%g" timeout));
          ("scale", Num (Printf.sprintf "%g" scale));
          ("lanes", List (List.map (fun l -> Str l) !lane_names));
          ("instances", List (List.map instance rows));
          ("single_totals", walls totals);
          ( "best_single",
            Obj [ ("lane", Str best_name); ("total", fixed 3 best_total) ] );
          ("median_single_total", fixed 3 median_total);
          ("portfolio_total", fixed 3 portfolio_total);
          ("speedup_vs_best_single", fixed 3 (best_total /. portfolio_total));
          ( "speedup_vs_median_single",
            fixed 3 (median_total /. portfolio_total) );
        ],
      fun _ -> [] )

let suite =
  {
    Harness.name = "portfolio";
    doc = "4-lane portfolio race vs each lane alone (no gate)";
    keys = [];
    run;
  }
