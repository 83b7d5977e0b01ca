type config = {
  max_steps : int;
  mapper : Lutmap.Mapper.config;
  embed : Deepgate.Embedding.config;
  reward_limits : Sat.Solver.limits;
  normalize_reward : bool;
  seed : int;
}

let default_config =
  {
    max_steps = 10;
    mapper = Lutmap.Mapper.cost_customized_config;
    embed = Deepgate.Embedding.default_config;
    reward_limits =
      {
        Sat.Solver.no_limits with
        Sat.Solver.max_decisions = Some 200_000;
        max_seconds = Some 10.0;
      };
    normalize_reward = true;
    seed = 99;
  }

let state_dim cfg = State.dim cfg.embed

let decisions_or_max ~limits f =
  let result, st = Sat.Solver.solve ~limits f in
  match (result, limits.Sat.Solver.max_decisions) with
  | Sat.Solver.Unknown, Some m -> max st.Sat.Solver.decisions m
  | _ -> st.Sat.Solver.decisions

let branching_of cfg g =
  let nl = Lutmap.Mapper.run ~config:cfg.mapper g in
  let enc = Lutmap.Encode.encode nl in
  decisions_or_max ~limits:cfg.reward_limits enc.Lutmap.Encode.formula

let make cfg instances =
  if Array.length instances = 0 then
    invalid_arg "Env.make: no training instances";
  let rng = Aig.Rng.create cfg.seed in
  let b0_cache = Array.make (Array.length instances) (-1) in
  (* Mutable episode state. *)
  let current = ref 0 in
  let graph = ref instances.(0) in
  let st = ref (State.of_initial ~embed_config:cfg.embed instances.(0)) in
  let steps = ref 0 in
  let reset () =
    current := Aig.Rng.int rng (Array.length instances);
    graph := instances.(!current);
    st := State.of_initial ~embed_config:cfg.embed !graph;
    steps := 0;
    State.observe !st !graph
  in
  let terminal_reward () =
    if b0_cache.(!current) < 0 then
      b0_cache.(!current) <- branching_of cfg instances.(!current);
    let b0 = b0_cache.(!current) in
    let bt = branching_of cfg !graph in
    let delta = float_of_int (b0 - bt) in
    if cfg.normalize_reward then delta /. float_of_int (max 1 b0) else delta
  in
  let step action =
    incr steps;
    let op = Synth.Recipe.op_of_index action in
    if op = Synth.Recipe.End then
      (State.observe !st !graph, terminal_reward (), true)
    else begin
      graph := Synth.Recipe.apply op !graph;
      let s' = State.observe !st !graph in
      if !steps >= cfg.max_steps then (s', terminal_reward (), true)
      else (s', 0.0, false)
    end
  in
  { Rl.Dqn.reset; step }
