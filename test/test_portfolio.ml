(* The portfolio race: differential fuzzing against brute force and
   the sequential solver, proof checkability under clause sharing,
   bit-identity of the jobs=1 fallback, and robustness to failing or
   cancelled workers. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let brute_force_sat f =
  let n = f.Cnf.Formula.num_vars in
  assert (n <= 14);
  let rec try_assignment m =
    m < 1 lsl n
    && (Cnf.Formula.eval f (Array.init n (fun i -> m land (1 lsl i) <> 0))
        || try_assignment (m + 1))
  in
  try_assignment 0

let random_formula rng =
  let nvars = 2 + Aig.Rng.int rng 13 in
  let nclauses = 1 + Aig.Rng.int rng (5 * nvars) in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Aig.Rng.int rng 5 in
        Array.init len (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v))
  in
  Cnf.Formula.create ~num_vars:nvars clauses

(* Direct-only pools keep the winner's model a model of the input
   formula, so both branches of the differential check apply. *)
let test_fuzz_vs_brute_force () =
  let rng = Aig.Rng.create 424242 in
  for i = 1 to 60 do
    let f = random_formula rng in
    let expected = brute_force_sat f in
    let jobs = 2 + (i mod 3) in
    let proof = Sat.Proof.create () in
    let outcome =
      Portfolio.Runner.run ~jobs ~share_lbd:1000 ~proof
        (Portfolio.Strategy.default_pool ~jobs)
        f
    in
    match outcome.Portfolio.Runner.result with
    | Sat.Solver.Sat m ->
      if not expected then
        Alcotest.failf "case %d: portfolio SAT, brute force UNSAT" i;
      if not (Cnf.Formula.eval f m) then
        Alcotest.failf "case %d: portfolio model does not satisfy" i
    | Sat.Solver.Unsat ->
      if expected then
        Alcotest.failf "case %d: portfolio UNSAT, brute force SAT" i;
      (* With direct-only lanes the winner is always a direct lane, so
         the shared recorder must have been replayed and checkable even
         though clauses crossed lanes mid-race. *)
      if not (Sat.Proof.sealed proof) then
        Alcotest.failf "case %d: UNSAT but proof not sealed" i;
      if not (Sat.Proof.check f proof) then
        Alcotest.failf "case %d: merged shared DRAT proof fails" i
    | Sat.Solver.Unknown -> Alcotest.failf "case %d: unexpected Unknown" i
  done;
  check_bool "portfolio fuzz 60/60" true true

let test_sequential_bit_identity () =
  (* jobs = 1 with the default pool must reproduce Sat.Solver.solve
     exactly: same answer, same model, same search trajectory, same
     proof log. *)
  let rng = Aig.Rng.create 31337 in
  for i = 1 to 40 do
    let f = random_formula rng in
    let proof_solo = Sat.Proof.create () in
    let r_solo, st_solo = Sat.Solver.solve ~proof:proof_solo f in
    let proof_race = Sat.Proof.create () in
    let outcome =
      Portfolio.Runner.run ~jobs:1 ~proof:proof_race
        (Portfolio.Strategy.default_pool ~jobs:1)
        f
    in
    let st_race = outcome.Portfolio.Runner.stats in
    (match (r_solo, outcome.Portfolio.Runner.result) with
     | Sat.Solver.Sat m1, Sat.Solver.Sat m2 ->
       if m1 <> m2 then Alcotest.failf "case %d: models differ" i
     | Sat.Solver.Unsat, Sat.Solver.Unsat -> ()
     | _ -> Alcotest.failf "case %d: results differ" i);
    if
      st_solo.Sat.Solver.decisions <> st_race.Sat.Solver.decisions
      || st_solo.Sat.Solver.conflicts <> st_race.Sat.Solver.conflicts
      || st_solo.Sat.Solver.propagations <> st_race.Sat.Solver.propagations
      || st_solo.Sat.Solver.restarts <> st_race.Sat.Solver.restarts
      || st_solo.Sat.Solver.learned <> st_race.Sat.Solver.learned
    then Alcotest.failf "case %d: search trajectories differ" i;
    if Sat.Proof.num_steps proof_solo <> Sat.Proof.num_steps proof_race then
      Alcotest.failf "case %d: proof logs differ" i
  done;
  check_bool "sequential identity 40/40" true true

let test_failed_worker_does_not_lose_race () =
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let strategies =
    [
      Portfolio.Strategy.prepared "boom" (fun ~stop:_ ->
          failwith "prepare blew up");
      Portfolio.Strategy.direct "direct";
      Portfolio.Strategy.prepared ~heuristic:`Lrb "boom-late" (fun ~stop:_ ->
          raise Not_found);
    ]
  in
  let outcome = Portfolio.Runner.run ~jobs:3 strategies f in
  (match outcome.Portfolio.Runner.result with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "race lost to failing workers");
  check_int "winner is the healthy lane" 1
    (Option.get outcome.Portfolio.Runner.winner);
  (* A sick lane raising before the race is decided reports Failed;
     one raising after counts as Cancelled.  Either way it must not
     claim an answer. *)
  Array.iteri
    (fun i w ->
      if i <> 1 then
        match w.Portfolio.Runner.outcome with
        | Portfolio.Runner.Failed _ | Portfolio.Runner.Cancelled -> ()
        | _ -> Alcotest.failf "sick lane %d produced an answer" i)
    outcome.Portfolio.Runner.workers

let test_cancellation_terminates () =
  (* One lane answers instantly; the others are still deep in php(8,7)
     when the interrupt lands.  run joining all domains *is* the
     termination property; the losers must come back Cancelled, not
     Limit, and well before the budget. *)
  let hard = Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7 in
  let strategies =
    Portfolio.Strategy.prepared "easy" (fun ~stop:_ ->
        Cnf.Formula.create ~num_vars:1 [ [| 1 |] ])
    :: Portfolio.Strategy.default_pool ~jobs:3
  in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some 120.0 }
  in
  let outcome = Portfolio.Runner.run ~jobs:4 ~limits strategies hard in
  (match outcome.Portfolio.Runner.result with
   | Sat.Solver.Sat _ -> ()
   | _ -> Alcotest.fail "easy lane should have won with SAT");
  check_int "easy lane wins" 0 (Option.get outcome.Portfolio.Runner.winner);
  check_bool "race returned promptly" true (outcome.Portfolio.Runner.wall < 60.0);
  Array.iteri
    (fun i w ->
      if i <> 0 then
        match w.Portfolio.Runner.outcome with
        | Portfolio.Runner.Cancelled | Portfolio.Runner.Answered _ -> ()
        | Portfolio.Runner.Limit _ ->
          Alcotest.failf "lane %d ran to its limit despite the interrupt" i
        | Portfolio.Runner.Failed msg -> Alcotest.failf "lane %d: %s" i msg)
    outcome.Portfolio.Runner.workers

let test_interrupt_hook () =
  let hard = Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7 in
  let interrupt = Sat.Solver.Interrupt.create () in
  Sat.Solver.Interrupt.set interrupt;
  let result, _ = Sat.Solver.solve ~interrupt hard in
  (match result with
   | Sat.Solver.Unknown -> ()
   | _ -> Alcotest.fail "pre-set interrupt must yield Unknown");
  Sat.Solver.Interrupt.clear interrupt;
  let result, _ = Sat.Solver.solve ~interrupt hard in
  match result with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "cleared interrupt must let the solve finish"

let test_export_import_hooks () =
  (* Export must only see clauses at or below the LBD cap, and a lane
     importing its peer's units/binaries must still answer correctly. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let exported = ref [] in
  let r, _ =
    Sat.Solver.solve
      ~export:(fun c lbd -> exported := (Array.copy c, lbd) :: !exported)
      ~export_lbd:3 f
  in
  (match r with Sat.Solver.Unsat -> () | _ -> Alcotest.fail "php(6,5)");
  check_bool "something was exported" true (!exported <> []);
  List.iter
    (fun (_, lbd) ->
      if lbd > 3 then Alcotest.failf "exported clause with lbd %d > 3" lbd)
    !exported;
  (* Re-solve importing everything we just exported at once. *)
  let pending = ref !exported in
  let import () =
    let batch = !pending in
    pending := [];
    batch
  in
  let r2, _ = Sat.Solver.solve ~import f in
  (match r2 with Sat.Solver.Unsat -> () | _ -> Alcotest.fail "with imports");
  check_bool "imports consumed" true (!pending = [])

let test_clause_bus_copies_per_receiver () =
  (* Published clauses must be fresh per inbox: a publisher reusing its
     buffer, or one receiver scribbling on a drained clause, must never
     be visible to another receiver. *)
  let bus = Portfolio.Clause_bus.create ~groups:[| Some 0; Some 0; Some 0 |] in
  let clause = [| 1; -2; 3 |] in
  Portfolio.Clause_bus.publish bus ~worker:0 clause 2;
  (* Publisher reuses its buffer immediately. *)
  Array.fill clause 0 3 0;
  (match Portfolio.Clause_bus.drain bus ~worker:1 with
   | [ (c, 2) ] ->
     check_bool "receiver 1 sees the original literals" true
       (c = [| 1; -2; 3 |]);
     (* Receiver 1 scribbles on its copy... *)
     Array.fill c 0 3 7
   | _ -> Alcotest.fail "worker 1 expected exactly one clause");
  (match Portfolio.Clause_bus.drain bus ~worker:2 with
   | [ (c, 2) ] ->
     check_bool "receiver 2 unaffected" true (c = [| 1; -2; 3 |])
   | _ -> Alcotest.fail "worker 2 expected exactly one clause");
  check_bool "nothing echoed to the publisher" true
    (Portfolio.Clause_bus.drain bus ~worker:0 = [])

let test_pipeline_portfolio_lec () =
  (* End-to-end through Core.Pipeline: EDA lanes really transform, and
     the race answer matches the direct solver on a small LEC miter. *)
  let g = Workloads.Lec.generate ~seed:5 ~num_pis:8 ~num_ands:120 () in
  let inst = Eda4sat.Instance.of_circuit ~name:"lec-mini" g in
  let direct = Eda4sat.Instance.direct_formula inst in
  let expect, _ = Sat.Solver.solve direct in
  let cfg = Eda4sat.Pipeline.ours () in
  let report, outcome =
    Eda4sat.Pipeline.run_portfolio ~jobs:4 cfg inst
  in
  (match (expect, report.Eda4sat.Pipeline.result) with
   | Sat.Solver.Unsat, Sat.Solver.Unsat | Sat.Solver.Sat _, Sat.Solver.Sat _ ->
     ()
   | _ -> Alcotest.fail "portfolio disagrees with direct solve on LEC miter");
  check_bool "a winner exists" true (outcome.Portfolio.Runner.winner <> None);
  check_bool "t_solve is the race wall" true
    (report.Eda4sat.Pipeline.t_solve = outcome.Portfolio.Runner.wall)

let test_strategy_pool_shape () =
  let cfg = Eda4sat.Pipeline.ours () in
  let inst =
    Eda4sat.Instance.of_cnf ~name:"tiny"
      (Cnf.Formula.create ~num_vars:2 [ [| 1; 2 |] ])
  in
  let pool = Eda4sat.Pipeline.portfolio_strategies ~jobs:10 cfg inst in
  check_bool "at least jobs strategies" true (List.length pool >= 10);
  (* Anchor lane first, and prepared lanes never claim share group 0. *)
  (match pool with
   | first :: _ ->
     check_bool "anchor is direct" true (first.Portfolio.Strategy.prepare = None)
   | [] -> Alcotest.fail "empty pool");
  List.iter
    (fun s ->
      if
        s.Portfolio.Strategy.prepare <> None
        && s.Portfolio.Strategy.share_group = Some 0
      then Alcotest.fail "prepared lane in the direct share group")
    pool;
  let baseline_pool =
    Eda4sat.Pipeline.portfolio_strategies ~jobs:4 Eda4sat.Pipeline.baseline inst
  in
  check_bool "baseline pool is direct-only" true
    (List.for_all (fun s -> s.Portfolio.Strategy.prepare = None) baseline_pool)

let suite =
  [
    ("fuzz: portfolio vs brute force (with sharing)", `Quick,
     test_fuzz_vs_brute_force);
    ("jobs=1 is bit-identical to Sat.Solver.solve", `Quick,
     test_sequential_bit_identity);
    ("a raising worker does not lose the race", `Quick,
     test_failed_worker_does_not_lose_race);
    ("losers are cancelled promptly", `Quick, test_cancellation_terminates);
    ("solver interrupt hook", `Quick, test_interrupt_hook);
    ("solver export/import hooks", `Quick, test_export_import_hooks);
    ("clause bus copies per receiver", `Quick,
     test_clause_bus_copies_per_receiver);
    ("pipeline portfolio on a LEC miter", `Quick, test_pipeline_portfolio_lec);
    ("strategy pool shape", `Quick, test_strategy_pool_shape);
  ]

(* --- simplify lanes, model lifts, race CPU accounting --------------- *)

let test_lifted_lane_reports_input_model () =
  (* A prepared_lifted lane answers Sat through its model lift, so the
     reported model satisfies the INPUT formula even though the lane
     solved a BVE-rewritten one. *)
  let f =
    Cnf.Formula.create ~num_vars:4
      [ [| 1; 2 |]; [| -1; 3 |]; [| -2; 4 |]; [| -3; -4; 1 |] ]
  in
  let lane name =
    Portfolio.Strategy.prepared_lifted ~share_group:1 name (fun ~stop:_ ->
        match Cnf.Simplify.run f with
        | Cnf.Simplify.Proved_unsat -> Alcotest.fail "satisfiable"
        | Cnf.Simplify.Simplified s ->
          (Cnf.Simplify.formula s, Some (Cnf.Simplify.reconstruct s)))
  in
  (* Sequential (jobs=1) and parallel, simplify lanes only: the winner
     is always lifted. *)
  List.iter
    (fun jobs ->
      let outcome =
        Portfolio.Runner.run ~jobs [ lane "simp/a"; lane "simp/b" ] f
      in
      match outcome.Portfolio.Runner.result with
      | Sat.Solver.Sat m ->
        check_bool "lifted model satisfies the input" true
          (Cnf.Formula.eval f m)
      | _ -> Alcotest.fail "satisfiable")
    [ 1; 2 ]

let test_pool_has_simplify_lanes () =
  let cfg = Eda4sat.Pipeline.ours () in
  let inst =
    Eda4sat.Instance.of_cnf ~name:"tiny"
      (Cnf.Formula.create ~num_vars:2 [ [| 1; 2 |] ])
  in
  let pool = Eda4sat.Pipeline.portfolio_strategies ~jobs:10 cfg inst in
  let simplify =
    List.filter
      (fun s ->
        String.length s.Portfolio.Strategy.name >= 9
        && String.sub s.Portfolio.Strategy.name 0 9 = "simplify/")
      pool
  in
  check_bool "simplify lanes present" true (List.length simplify >= 2);
  List.iter
    (fun s ->
      check_bool "simplify lanes share among themselves only" true
        (s.Portfolio.Strategy.share_group <> None
         && s.Portfolio.Strategy.share_group <> Some 0);
      check_bool "simplify lanes are prepared" true
        (s.Portfolio.Strategy.prepare <> None))
    simplify

let test_race_cpu_reported_once () =
  (* The per-lane Sys.time reading over-attributes concurrent work, so
     the runner reports one race-level CPU figure in the winner's stats
     and zeroes the field in every other lane's. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let outcome =
    Portfolio.Runner.run ~jobs:3 (Portfolio.Strategy.default_pool ~jobs:3) f
  in
  let w = Option.get outcome.Portfolio.Runner.winner in
  check_bool "winner carries the race CPU figure" true
    (outcome.Portfolio.Runner.stats.Sat.Solver.cpu_time >= 0.0);
  Array.iteri
    (fun i r ->
      if i <> w then
        match r.Portfolio.Runner.outcome with
        | Portfolio.Runner.Answered (_, s) | Portfolio.Runner.Limit s ->
          check_bool "losing lane cpu_time zeroed" true
            (s.Sat.Solver.cpu_time = 0.0)
        | _ -> ())
    outcome.Portfolio.Runner.workers

let suite =
  suite
  @ [
      ("lifted lanes report input-variable models", `Quick,
       test_lifted_lane_reports_input_model);
      ("pool contains simplify lanes", `Quick, test_pool_has_simplify_lanes);
      ("race-level cpu reported once", `Quick, test_race_cpu_reported_once);
    ]

(* --- cube-and-conquer ----------------------------------------------- *)

let cube_check_unsat_proof name f =
  let proof = Sat.Proof.create () in
  let report = Portfolio.Cuber.solve ~cubes:4 ~jobs:2 ~proof f in
  check_bool (name ^ ": UNSAT") true
    (report.Portfolio.Cuber.result = Sat.Solver.Unsat);
  check_bool (name ^ ": refutation complete") true
    report.Portfolio.Cuber.refutation_complete;
  check_bool (name ^ ": stitched proof sealed") true (Sat.Proof.sealed proof);
  check_bool (name ^ ": stitched proof checks") true (Sat.Proof.check f proof)

let test_cuber_fuzz_differential () =
  (* Cube-and-conquer verdict must agree with the sequential solver on
     random CNFs; every UNSAT must come with a checkable stitched
     proof; every SAT model must satisfy the input formula. *)
  let rng = Aig.Rng.create 777001 in
  for i = 1 to 40 do
    let f = random_formula rng in
    let expected, _ = Sat.Solver.solve f in
    let proof = Sat.Proof.create () in
    let report =
      Portfolio.Cuber.solve ~cubes:4 ~jobs:(1 + (i mod 3)) ~proof f
    in
    (match (expected, report.Portfolio.Cuber.result) with
     | Sat.Solver.Sat _, Sat.Solver.Sat m ->
       if not (Cnf.Formula.eval f m) then
         Alcotest.failf "case %d: cube model does not satisfy" i
     | Sat.Solver.Unsat, Sat.Solver.Unsat ->
       if not report.Portfolio.Cuber.refutation_complete then
         Alcotest.failf "case %d: UNSAT without complete refutation" i;
       if not (Sat.Proof.sealed proof) then
         Alcotest.failf "case %d: UNSAT but stitched proof not sealed" i;
       if not (Sat.Proof.check f proof) then
         Alcotest.failf "case %d: stitched DRAT proof fails" i
     | e, g ->
       let name = function
         | Sat.Solver.Sat _ -> "SAT"
         | Sat.Solver.Unsat -> "UNSAT"
         | Sat.Solver.Unknown -> "UNKNOWN"
       in
       Alcotest.failf "case %d: solver %s, cuber %s" i (name e) (name g))
  done;
  check_bool "cuber fuzz 40/40" true true

let test_cuber_php_and_lec () =
  cube_check_unsat_proof "php(6,5)"
    (Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5);
  cube_check_unsat_proof "lec miter"
    (Workloads.Suites.miter_cnf ~seed:5 ~num_ands:40)

let test_cuber_jobs1_deterministic () =
  (* jobs = 1 conquers sequentially in cube order: two runs must agree
     bit-for-bit — same cubes, same outcomes, same stitched proof,
     same search trajectory. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let run () =
    let proof = Sat.Proof.create () in
    let report = Portfolio.Cuber.solve ~cubes:8 ~jobs:1 ~proof f in
    (report, Sat.Proof.steps proof)
  in
  let r1, p1 = run () in
  let r2, p2 = run () in
  check_bool "same cube partition" true
    (r1.Portfolio.Cuber.cubes = r2.Portfolio.Cuber.cubes);
  check_bool "same outcomes" true
    (r1.Portfolio.Cuber.outcomes = r2.Portfolio.Cuber.outcomes);
  check_bool "no steals at jobs=1" true (r1.Portfolio.Cuber.steals = 0);
  check_bool "same stitched proof" true (p1 = p2);
  check_int "same decisions"
    r1.Portfolio.Cuber.stats.Sat.Solver.decisions
    r2.Portfolio.Cuber.stats.Sat.Solver.decisions

(* Cube partitions recorded when [Sat.Solver.prober] still loaded
   formulas through the solver's array-of-arrays loader: the lookahead
   runs on the one CSR loader now and must split exactly as before. *)
let test_cuber_partition_pinned () =
  let cubes f =
    match Portfolio.Cuber.split ~cubes:8 f with
    | `Cubes cs ->
      Array.to_list
        (Array.map
           (fun c ->
             (Array.to_list c.Portfolio.Cuber.lits, c.Portfolio.Cuber.dead))
           cs)
    | `Sat _ | `Unsat -> Alcotest.fail "expected a cube partition"
  in
  let pinned = Alcotest.(list (pair (list int) bool)) in
  Alcotest.check pinned "php(6,5) partition"
    (List.concat_map
       (fun a ->
         List.concat_map
           (fun b -> List.map (fun c -> ([ a; b; c ], false)) [ 3; -3 ])
           [ 2; -2 ])
       [ 1; -1 ])
    (cubes (Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5));
  Alcotest.check pinned "LEC miter partition"
    [
      ([ 34; 31 ], true);
      ([ -34; 30 ], true);
      ([ 34; -31; -15 ], true);
      ([ -34; -30; 31 ], true);
      ([ 34; -31; 15; 28 ], true);
      ([ 34; -31; 15; -28 ], true);
      ([ -34; -30; -31; -15 ], true);
      ([ -34; -30; -31; 15; 28 ], true);
      ([ -34; -30; -31; 15; -28 ], true);
    ]
    (cubes (Workloads.Suites.miter_cnf ~seed:5 ~num_ands:40))

let test_cuber_first_sat_cancels_siblings () =
  (* An under-constrained satisfiable formula: at jobs = 1 the first
     live cube answers Sat, so every later cube must be observed
     cancelled through the shared interrupt. *)
  let f =
    Cnf.Formula.create ~num_vars:12
      (List.init 6 (fun i -> [| (2 * i) + 1; (2 * i) + 2 |]))
  in
  let report = Portfolio.Cuber.solve ~cubes:8 ~jobs:1 f in
  (match report.Portfolio.Cuber.result with
   | Sat.Solver.Sat m ->
     check_bool "model satisfies" true (Cnf.Formula.eval f m)
   | _ -> Alcotest.fail "expected SAT");
  let cancelled =
    Array.fold_left
      (fun acc o ->
        if o = Portfolio.Cuber.Cube_cancelled then acc + 1 else acc)
      0 report.Portfolio.Cuber.outcomes
  in
  check_bool "sibling cubes observed cancelled" true (cancelled > 0)

let test_cuber_partial_failure_is_not_unsat () =
  (* A cube job that dies mid-race must leave the conquest inconclusive
     — never a published UNSAT — and must not seal (or pollute) the
     caller's proof recorder. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let proof = Sat.Proof.create () in
  let claimed = ref 0 in
  let report =
    Portfolio.Cuber.solve ~cubes:8 ~jobs:1 ~proof
      ~on_cube:(fun _ ->
        incr claimed;
        if !claimed = 2 then failwith "boom")
      f
  in
  check_bool "result is not UNSAT" true
    (report.Portfolio.Cuber.result <> Sat.Solver.Unsat);
  check_bool "refutation not complete" true
    (not report.Portfolio.Cuber.refutation_complete);
  check_bool "failure recorded" true
    (report.Portfolio.Cuber.failure <> None);
  check_bool "caller proof untouched" true
    (not (Sat.Proof.sealed proof) && Sat.Proof.steps proof = []);
  let failed =
    Array.exists
      (function Portfolio.Cuber.Cube_failed _ -> true | _ -> false)
      report.Portfolio.Cuber.outcomes
  in
  check_bool "failed cube outcome recorded" true failed

let test_cuber_external_interrupt () =
  (* A pre-set external interrupt cancels the whole conquest before any
     cube solves: Unknown, nothing refuted, proof left open. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let interrupt = Sat.Solver.Interrupt.create () in
  Sat.Solver.Interrupt.set interrupt;
  let proof = Sat.Proof.create () in
  let report = Portfolio.Cuber.solve ~cubes:4 ~jobs:2 ~proof ~interrupt f in
  check_bool "interrupted conquest is Unknown" true
    (report.Portfolio.Cuber.result = Sat.Solver.Unknown);
  check_bool "proof left open" true (not (Sat.Proof.sealed proof))

let suite =
  suite
  @ [
      ("cuber fuzz: verdict ≡ sequential solver + stitched DRAT", `Quick,
       test_cuber_fuzz_differential);
      ("cuber: php and LEC miters refute with checkable proofs", `Quick,
       test_cuber_php_and_lec);
      ("cuber: jobs=1 is deterministic (bit-identical cubes)", `Quick,
       test_cuber_jobs1_deterministic);
      ("cuber: cube partitions match the pinned splits", `Quick,
       test_cuber_partition_pinned);
      ("cuber: first SAT cancels sibling cubes", `Quick,
       test_cuber_first_sat_cancels_siblings);
      ("cuber: a dying cube never yields UNSAT", `Quick,
       test_cuber_partial_failure_is_not_unsat);
      ("cuber: external interrupt cancels the conquest", `Quick,
       test_cuber_external_interrupt);
    ]
