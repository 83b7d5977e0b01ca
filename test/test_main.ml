let () =
  Alcotest.run "eda4sat"
    [
      ("aig", Test_aig.suite);
      ("cnf", Test_cnf.suite);
      ("sat", Test_sat.suite);
      ("sat-fuzz", Test_sat_fuzz.suite);
      ("synth", Test_synth.suite);
      ("lutmap", Test_lutmap.suite);
      ("deepgate", Test_deepgate.suite);
      ("rl", Test_rl.suite);
      ("core", Test_core.suite);
      ("portfolio", Test_portfolio.suite);
      ("server", Test_server.suite);
      ("net", Test_net.suite);
      ("cli", Test_cli.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("bench", Test_bench.suite);
    ]
