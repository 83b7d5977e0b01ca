(* Every suite [bench.exe] runs, by name. *)

let all =
  [
    Paper_bench.suite;
    Prop_bench.arena;
    Prop_bench.inprocess;
    Portfolio_bench.suite;
    Server_bench.suite;
    Session_bench.suite;
    Net_bench.suite;
    Warm_bench.suite;
    Cube_bench.suite;
  ]
