(* Propagation throughput of the CDCL core: the [sat_arena] and
   [sat_inprocess] suites.

     dune exec bench/bench.exe -- sat_arena
     dune exec bench/bench.exe -- sat_arena --json BENCH_sat_arena.json
     dune exec bench/bench.exe -- sat_inprocess --check BENCH_sat_inprocess.json

   Reports decisions, conflicts, propagations, propagations/sec and
   minor-heap words per conflict for a small set of propagation-bound
   instances, so solver-engine changes can be compared before/after.

   [sat_arena] measures the php suite (plus the frozen record-clause
   PR-2 baseline in its JSON); without [--json] or [--check] it instead
   prints the wider exploratory set below.  [sat_inprocess] measures the
   same suite with restart-boundary inprocessing off and on.  Both gates
   fail if fresh props/sec fell more than 10% below the committed
   numbers. *)

type measurement = {
  m_name : string;
  verdict : string;
  time : float;
  decisions : int;
  conflicts : int;
  propagations : int;
  props_per_sec : float;
  mw_per_conflict : float;
  probed : int;
  vivified : int;
  inproc_subsumed : int;
}

let measure ?(repeat = 1) ?inprocess name f =
  (* Best-of-n: the trajectory is deterministic, so repeats only shave
     scheduler/GC noise off the timing. *)
  let best = ref None in
  for _ = 1 to repeat do
    let result, st = Sat.Solver.solve ?inprocess f in
    let verdict = Harness.result_name result in
    let props_per_sec =
      if st.Sat.Solver.time > 0.0 then
        float_of_int st.Sat.Solver.propagations /. st.Sat.Solver.time
      else 0.0
    in
    let m =
      {
        m_name = name;
        verdict;
        time = st.Sat.Solver.time;
        decisions = st.Sat.Solver.decisions;
        conflicts = st.Sat.Solver.conflicts;
        propagations = st.Sat.Solver.propagations;
        props_per_sec;
        mw_per_conflict =
          st.Sat.Solver.minor_words
          /. float_of_int (max 1 st.Sat.Solver.conflicts);
        probed = st.Sat.Solver.probed;
        vivified = st.Sat.Solver.vivified;
        inproc_subsumed = st.Sat.Solver.inproc_subsumed;
      }
    in
    match !best with
    | Some b when b.props_per_sec >= m.props_per_sec -> ()
    | _ -> best := Some m
  done;
  Option.get !best

let report m =
  Printf.printf
    "%-28s %-8s time=%8.3fs decisions=%8d conflicts=%8d props=%10d \
     props/sec=%12.0f mw/conflict=%8.1f\n%!"
    m.m_name m.verdict m.time m.decisions m.conflicts m.propagations
    m.props_per_sec m.mw_per_conflict

let run ?repeat name f = report (measure ?repeat name f)

(* Pure-propagation workloads with a trajectory that is independent of
   propagation order: a unit literal triggers one long implication
   chain, so wall time measures propagation throughput alone. *)

let binary_chain n =
  let clauses =
    [| 1 |] :: List.init (n - 1) (fun i -> [| -(i + 1); i + 2 |])
  in
  Cnf.Formula.create ~num_vars:n clauses

let wide_chain n =
  (* Chain clauses padded with four dummy literals forced false, so
     every propagation walks the long-clause watcher machinery. *)
  let d = n + 1 in
  let dummies = List.init 4 (fun i -> [| -(d + i) |]) in
  let chain =
    List.init (n - 1) (fun i ->
        [| -(i + 1); i + 2; d + (i mod 4); d + ((i + 1) mod 4) |])
  in
  Cnf.Formula.create ~num_vars:(n + 4) (([| 1 |] :: dummies) @ chain)

(* --- the tracked php instances ------------------------------------- *)

let php_instances =
  [
    ("php(7,6)", fun () -> Workloads.Satcomp.pigeonhole ~pigeons:7 ~holes:6);
    ("php(8,7)", fun () -> Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7);
  ]

(* PR-2 record-clause baseline, measured on the reference host with
   bench/prop_bench.ml before the arena rewrite (mean of 3 runs). *)
let record_baseline =
  [
    ("php(7,6)", (1_540_000.0, 364.7));
    ("php(8,7)", (650_000.0, 415.0));
  ]

let measure_php ?inprocess () =
  List.map
    (fun (name, mk) -> measure ~repeat:5 ?inprocess name (mk ()))
    php_instances

(* Eager settings so the small tracked instances run all three passes
   every restart — this measures the overhead ceiling, not the
   production default (interval 4). *)
let bench_inprocess =
  { Sat.Solver.default_inprocess with Sat.Solver.inproc_interval = 1 }

(* --- JSON and gate ---------------------------------------------------- *)

let doc_head schema note =
  [ ("schema", Harness.Str schema); ("note", Harness.Str note) ]

let section fields ms =
  Harness.Obj (List.map (fun m -> (m.m_name, Harness.Obj (fields m))) ms)

let arena_fields m =
  Harness.
    [
      ("props_per_sec", fixed 0 m.props_per_sec);
      ("minor_words_per_conflict", fixed 1 m.mw_per_conflict);
      ("conflicts", int m.conflicts);
      ("propagations", int m.propagations);
    ]

let inproc_fields m =
  Harness.
    [
      ("props_per_sec", fixed 0 m.props_per_sec);
      ("minor_words_per_conflict", fixed 1 m.mw_per_conflict);
      ("conflicts", int m.conflicts);
      ("probed", int m.probed);
      ("vivified", int m.vivified);
      ("inproc_subsumed", int m.inproc_subsumed);
    ]

let keys section =
  List.map (fun (name, _) -> [ section; name; "props_per_sec" ]) php_instances

let props_gate section ms committed =
  List.map
    (fun m ->
      let c = committed [ section; m.m_name; "props_per_sec" ] in
      Harness.at_least
        (Printf.sprintf "%s props/sec vs 0.9x committed %.0f" m.m_name c)
        m.props_per_sec (0.9 *. c))
    ms

let explore () =
  run "binary-chain(300k)" (binary_chain 300_000);
  run "wide-chain(150k)" (wide_chain 150_000);
  run ~repeat:3 "php(7,6)" (Workloads.Satcomp.pigeonhole ~pigeons:7 ~holes:6);
  run ~repeat:3 "php(8,7)" (Workloads.Satcomp.pigeonhole ~pigeons:8 ~holes:7);
  run "random3sat(n=140,m=595)"
    (Workloads.Satcomp.random_ksat ~seed:7 ~num_vars:140 ~num_clauses:595 ~k:3);
  run "xor(n=40,x=36,w=4)"
    (Workloads.Satcomp.xor_cnf ~seed:11 ~num_vars:40 ~num_xors:36 ~width:4);
  run "round_robin(teams=8,weeks=6)"
    (Workloads.Satcomp.round_robin ~weeks:6 ~teams:8 ())

let arena =
  {
    Harness.name = "sat_arena";
    doc = "props/sec on the php suite (exploratory set without flags)";
    keys = keys "arena";
    run =
      (fun () ->
        if Harness.json_path () = None && Harness.check_path () = None then (
          explore ();
          None)
        else begin
          let ms = measure_php () in
          List.iter report ms;
          let record =
            List.map
              (fun (name, (pps, mwc)) ->
                ( name,
                  Harness.(
                    Obj
                      [
                        ("props_per_sec", fixed 0 pps);
                        ("minor_words_per_conflict", fixed 1 mwc);
                      ]) ))
              record_baseline
          in
          Some
            ( Harness.Obj
                (doc_head "eda4sat-prop-bench-v1"
                   "props/sec and minor-heap words per conflict on the php \
                    suite; record_baseline is the frozen PR-2 record-clause \
                    solver, arena is the current flat-arena solver"
                @ [
                    ("record_baseline", Harness.Obj record);
                    ("arena", section arena_fields ms);
                  ]),
              props_gate "arena" ms )
        end);
  }

(* The off section is only written, never gated, so a check-only run
   skips measuring it. *)
let inprocess =
  {
    Harness.name = "sat_inprocess";
    doc = "props/sec on the php suite, inprocessing off vs on";
    keys = keys "inprocess";
    run =
      (fun () ->
        let off =
          if Harness.json_path () = None && Harness.check_path () <> None
          then []
          else measure_php ()
        in
        let on = measure_php ~inprocess:bench_inprocess () in
        List.iter report off;
        List.iter report on;
        Some
          ( Harness.Obj
              (doc_head "eda4sat-inproc-bench-v1"
                 "php suite with restart-boundary inprocessing off vs on \
                  (inproc_interval=1, the overhead ceiling); the CI gate \
                  tracks the inprocess section's props/sec"
              @ [
                  ("off", section inproc_fields off);
                  ("inprocess", section inproc_fields on);
                ]),
            props_gate "inprocess" on ));
  }
