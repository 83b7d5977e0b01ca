let () = Bench_suites.Harness.main Bench_suites.Registry.all
