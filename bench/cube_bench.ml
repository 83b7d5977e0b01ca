(* Cube-and-conquer: the [cube] suite.

     dune exec bench/bench.exe -- cube
     dune exec bench/bench.exe -- cube --jobs 4 --cubes 16
     dune exec bench/bench.exe -- cube --check BENCH_cube.json

   Each hard UNSAT instance is solved twice on the same worker
   budget:

   1. Race: the diversified portfolio ([Runner.run] over
      [Strategy.default_pool ~jobs]) — the strongest pre-cube
      configuration, every lane attacking the whole formula.

   2. Cube: [Cuber.solve ~cubes ~jobs] — lookahead split into cubes,
      conquered in parallel with work stealing, each refutation
      stitched into one shared DRAT recorder closed by the empty
      clause.  The stitched proof is replayed with [Proof.check] on
      the checkable sizes, so the reported speedup is for a {e
      certified} refutation.

   A flipped verdict or a stitched proof that stops checking aborts
   the run; the gate fails if cubing is slower than the race or the
   speedup collapsed versus the committed figure. *)

let php n = Workloads.Satcomp.pigeonhole ~pigeons:n ~holes:(n - 1)

(* Hard UNSAT slice; [check_proof] marks the sizes where replaying the
   stitched DRAT stream is affordable (Proof.check is an unoptimized
   reference checker, quadratic-ish in the clause count).  The larger
   rows still assert [proof_sealed] — the stream reached the empty
   clause — they just skip the replay. *)
let instances () =
  [
    ("php(8,7)", php 8, true);
    ("php(9,8)", php 9, false);
    ("php(10,9)", php 10, false);
  ]

type row = {
  name : string;
  verdict : string;
  race_s : float;
  cube_s : float;
  steals : int;
  proof_ok : bool option;  (* None: proof not replayed at this size *)
}

let run_suite ~jobs ~cubes ~probe_limit ~limits instances =
  List.map
    (fun (name, f, check_proof) ->
      let fl = Cnf.Flat.of_formula f in
      let race =
        Portfolio.Runner.run ~jobs ~limits
          (Portfolio.Strategy.default_pool ~jobs)
          fl
      in
      let proof = Sat.Proof.create () in
      let cr =
        Portfolio.Cuber.solve ~cubes ~probe_limit ~jobs ~limits ~proof fl
      in
      (* A timed-out race (Unknown) may legitimately lose to a decisive
         cube answer; only two decisive, different verdicts are a bug. *)
      (match (cr.Portfolio.Cuber.result, race.Portfolio.Runner.result) with
       | Sat.Solver.Unknown, _ | _, Sat.Solver.Unknown -> ()
       | a, b when Harness.result_name a <> Harness.result_name b ->
         failwith
           (Printf.sprintf "%s: cube verdict %s != race %s" name
              (Harness.result_name a) (Harness.result_name b))
       | _ -> ());
      (match cr.Portfolio.Cuber.result with
       | Sat.Solver.Unsat when not cr.Portfolio.Cuber.proof_sealed ->
         failwith (name ^ ": UNSAT without a sealed stitched proof")
       | _ -> ());
      let proof_ok =
        if check_proof && cr.Portfolio.Cuber.result = Sat.Solver.Unsat then
          Some (Sat.Proof.check f proof)
        else None
      in
      (match proof_ok with
       | Some false -> failwith (name ^ ": stitched proof failed Proof.check")
       | _ -> ());
      {
        name;
        verdict = Harness.result_name cr.Portfolio.Cuber.result;
        race_s = race.Portfolio.Runner.wall;
        cube_s = cr.Portfolio.Cuber.wall;
        steals = cr.Portfolio.Cuber.steals;
        proof_ok;
      })
    instances

let run () =
  let jobs = Harness.arg "--jobs" int_of_string 4 in
  let cubes = Harness.arg "--cubes" int_of_string 16 in
  let probe_limit = Harness.arg "--probe-limit" int_of_string 32 in
  let timeout = Harness.arg "--timeout" float_of_string 120.0 in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some timeout }
  in
  let instances = instances () in
  Printf.printf "cube bench: %d instances, jobs=%d cubes=%d probe-limit=%d\n%!"
    (List.length instances) jobs cubes probe_limit;
  let rows = run_suite ~jobs ~cubes ~probe_limit ~limits instances in
  let eps = 1e-6 in
  let speedups =
    List.map (fun r -> max eps r.race_s /. max eps r.cube_s) rows
  in
  let cube_speedup = Harness.geomean speedups in
  List.iter2
    (fun r su ->
      Printf.printf "  %-11s %-6s race=%.3fs cube=%.3fs steals=%d %s %.2fx\n"
        r.name r.verdict r.race_s r.cube_s r.steals
        (match r.proof_ok with
         | Some true -> "proof=checked"
         | Some false -> "proof=FAILED"
         | None -> "proof=sealed")
        su)
    rows speedups;
  Printf.printf "cube speedup vs portfolio race (geomean): %.2fx\n%!"
    cube_speedup;
  let open Harness in
  Some
    ( Obj
        [
          ("jobs", int jobs);
          ("cubes", int cubes);
          ("probe_limit", int probe_limit);
          ("cube_speedup_geomean", fixed 2 cube_speedup);
          ( "per_instance",
            List
              (List.map2
                 (fun (r : row) su ->
                   Obj
                     [
                       ("name", Str r.name);
                       ("verdict", Str r.verdict);
                       ("race_seconds", fixed 4 r.race_s);
                       ("cube_seconds", fixed 4 r.cube_s);
                       ("steals", int r.steals);
                       ( "proof_checked",
                         Raw
                           (Option.fold ~none:"null" ~some:string_of_bool
                              r.proof_ok) );
                       ("speedup", fixed 2 su);
                     ])
                 rows speedups) );
        ],
      fun committed ->
        (* Wall ratios on shared CI machines swing; hold a floor (the
           cube path must at least match the race it replaces) and
           guard against collapse versus the committed figure. *)
        [
          at_least "cube speedup vs 1x floor (the race)" cube_speedup 1.0;
          at_least "cube speedup vs committed/3" cube_speedup
            (committed [ "cube_speedup_geomean" ] /. 3.0);
        ] )

let suite =
  {
    Harness.name = "cube";
    doc = "cube-and-conquer vs the portfolio race on hard php";
    keys = [ [ "cube_speedup_geomean" ] ];
    run;
  }
