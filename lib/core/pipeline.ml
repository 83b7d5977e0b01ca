let log_src = Logs.Src.create "eda4sat.pipeline" ~doc:"Algorithm 1 pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type recipe_source =
  | No_preprocessing
  | Fixed of Synth.Recipe.op list
  | Random_policy of { seed : int; steps : int }
  | Agent of Rl.Dqn.t * int

type config = {
  recipe : recipe_source;
  mapper : Lutmap.Mapper.config;
  embed : Deepgate.Embedding.config;
  advanced_recovery : bool;
}

type report = {
  instance : string;
  recipe_used : Synth.Recipe.op list;
  vars : int;
  clauses : int;
  t_agent : float;
  t_trans : float;
  t_solve : float;
  result : Sat.Solver.result;
  solver_stats : Sat.Solver.stats;
  aig_before : Aig.Stats.snapshot option;
  aig_after : Aig.Stats.snapshot option;
  netlist_luts : int;
  netlist_levels : int;
}

let t_all r = r.t_agent +. r.t_trans +. r.t_solve

(* A report of an instance that is yet to be transformed or solved. *)
let blank_report inst ~vars ~clauses =
  {
    instance = inst.Instance.name;
    recipe_used = [];
    vars;
    clauses;
    t_agent = 0.0;
    t_trans = 0.0;
    t_solve = 0.0;
    result = Unknown;
    solver_stats = Sat.Solver.empty_stats;
    aig_before = None;
    aig_after = None;
    netlist_luts = 0;
    netlist_levels = 0;
  }

(* Wall-clock timing (monotonic): the paper's T_agent/T_trans/T_solve
   decomposition is about elapsed time, and under the portfolio several
   domains share the process, so [Sys.time] (process CPU) would
   over-count by the domain fan-out. *)
let timed f =
  let t0 = Sat.Wall.now () in
  let x = f () in
  (x, Sat.Wall.now () -. t0)

let rec until_end = function
  | [] | Synth.Recipe.End :: _ -> []
  | op :: rest -> op :: until_end rest

(* Charges Q-network/embedding time to t_agent and synthesis time to
   t_synth.  The operators poll the domain's stop scope on every node;
   the agent loop polls it once per step as well, since a step's
   inference runs no operator. *)
let synthesize config g0 =
  let fixed ops =
    let ops = until_end ops in
    let g, t_synth = timed (fun () -> Synth.Recipe.apply_sequence ops g0) in
    (g, ops, 0.0, t_synth)
  in
  match config.recipe with
  | No_preprocessing -> (g0, [], 0.0, 0.0)
  | Fixed ops -> fixed ops
  | Random_policy { seed; steps } ->
    let rng = Aig.Rng.create seed in
    (* Random over the non-End operations, as in §4.3 (the random agent
       always runs T operations). *)
    fixed
      (List.init steps (fun _ ->
           Synth.Recipe.op_of_index (Aig.Rng.int rng 4)))
  | Agent (agent, max_steps) ->
    let st, t_embed =
      timed (fun () -> State.of_initial ~embed_config:config.embed g0)
    in
    let t_agent = ref t_embed and t_synth = ref 0.0 in
    let g = ref g0 and ops = ref [] in
    (try
       for _t = 1 to max_steps do
         Aig.Interrupt.poll ();
         let action, t_sel =
           timed (fun () ->
               Rl.Dqn.select_action agent (State.observe st !g))
         in
         t_agent := !t_agent +. t_sel;
         let op = Synth.Recipe.op_of_index action in
         if op = Synth.Recipe.End then raise Exit;
         ops := op :: !ops;
         let g', t_op = timed (fun () -> Synth.Recipe.apply op !g) in
         t_synth := !t_synth +. t_op;
         g := g'
       done
     with Exit -> ());
    (!g, List.rev !ops, !t_agent, !t_synth)

let transform config inst =
  match config.recipe with
  | No_preprocessing ->
    let f = Instance.direct_formula inst in
    ( f,
      blank_report inst ~vars:f.Cnf.Formula.num_vars
        ~clauses:(Cnf.Formula.num_clauses f) )
  | Fixed _ | Random_policy _ | Agent _ ->
    let g0, t_to_aig =
      timed (fun () -> Instance.to_aig ~advanced:config.advanced_recovery inst)
    in
    let before = Aig.Stats.snapshot g0 in
    Log.debug (fun m ->
        m "%s: G0 has %d ANDs, depth %d (to_aig %.3fs)" inst.Instance.name
          before.Aig.Stats.area before.Aig.Stats.depth t_to_aig);
    let g, recipe_used, t_agent, t_synth = synthesize config g0 in
    let after = Aig.Stats.snapshot g in
    Log.debug (fun m ->
        m "%s: recipe [%s] -> %d ANDs, depth %d (synth %.3fs)"
          inst.Instance.name
          (Synth.Recipe.to_string recipe_used)
          after.Aig.Stats.area after.Aig.Stats.depth t_synth);
    let nl, t_map =
      timed (fun () -> Lutmap.Mapper.run ~config:config.mapper g)
    in
    let enc, t_enc = timed (fun () -> Lutmap.Encode.encode nl) in
    let f = enc.Lutmap.Encode.formula in
    Log.debug (fun m ->
        m "%s: mapped to %d LUTs / %d levels; CNF %d vars, %d clauses \
           (map %.3fs, encode %.3fs)"
          inst.Instance.name
          (Lutmap.Netlist.num_luts nl)
          (Lutmap.Netlist.depth nl) f.Cnf.Formula.num_vars
          (Cnf.Formula.num_clauses f) t_map t_enc);
    ( f,
      {
        (blank_report inst ~vars:f.Cnf.Formula.num_vars
           ~clauses:(Cnf.Formula.num_clauses f))
        with
        recipe_used;
        t_agent;
        t_trans = t_to_aig +. t_synth +. t_map +. t_enc;
        aig_before = Some before;
        aig_after = Some after;
        netlist_luts = Lutmap.Netlist.num_luts nl;
        netlist_levels = Lutmap.Netlist.depth nl;
      } )

let run ?(limits = Sat.Solver.no_limits) ?proof config inst =
  let f, rep = transform config inst in
  let (result, stats), t_solve =
    timed (fun () -> Sat.Solver.solve ~limits ?proof f)
  in
  { rep with t_solve; result; solver_stats = stats }

let default_embed = Deepgate.Embedding.default_config

let baseline =
  {
    recipe = No_preprocessing;
    mapper = Lutmap.Mapper.default_config;
    embed = default_embed;
    advanced_recovery = false;
  }

(* The flow of Eén, Mishchenko & Sörensson 2007: DAG-aware minimization
   plus FRAIGing (our resub), then conventional minimum-area
   technology mapping into CNF.  Differs from [ours] in both knobs the
   paper ablates: no learned recipe, no branching-aware mapping. *)
let een2007 =
  {
    recipe = Fixed (Synth.Recipe.compress2 @ [ Synth.Recipe.Resub ]);
    mapper = Lutmap.Mapper.default_config;
    embed = default_embed;
    advanced_recovery = false;
  }

(* Without a trained agent, the framework's best fixed recipe.  Balance
   first: CNF-recovered circuits arrive as deep constraint chains
   (§4.6) and every later pass is dramatically cheaper on the balanced
   form — the same signal the RL agent reads from the balance-ratio
   feature.  Resub (FRAIG) is the big hammer on miters, bracketed by
   rewriting. *)
let default_recipe =
  [ Synth.Recipe.Balance; Synth.Recipe.Rewrite; Synth.Recipe.Resub;
    Synth.Recipe.Rewrite; Synth.Recipe.Balance ]

let ours ?agent ?(max_steps = 10) () =
  {
    recipe =
      (match agent with
       | Some a -> Agent (a, max_steps)
       | None -> Fixed default_recipe);
    mapper = Lutmap.Mapper.cost_customized_config;
    embed = default_embed;
    advanced_recovery = false;
  }

let ours_without_rl ~seed =
  {
    recipe = Random_policy { seed; steps = 10 };
    mapper = Lutmap.Mapper.cost_customized_config;
    embed = default_embed;
    advanced_recovery = false;
  }

let ours_conventional_mapper ?agent () =
  { (ours ?agent ()) with mapper = Lutmap.Mapper.default_config }

(* --- portfolio ------------------------------------------------------ *)

(* The racing lanes.  Direct lanes (solving the instance's own CNF)
   interleave with EDA lanes that run Algorithm 1 first: preprocessing
   itself is a portfolio member, paying its T_trans inside its own
   lane while the direct lanes already solve.  A lane's transformed
   CNF is equisatisfiable with — but different from — the input, so
   EDA lanes, having a [prepare] step, never exchange clauses (see
   {!Portfolio.Strategy}).  Every lane names its restart policy: the
   "eda/evsids/luby" lane is Algorithm 1 with Luby restarts, not the
   solver default (Glucose) that [run] uses. *)
let portfolio_strategies ?(jobs = 4) config inst =
  let open Portfolio.Strategy in
  let lane name cfg heuristic restarts =
    prepared ~heuristic ~restarts name (fun () -> fst (transform cfg inst))
  in
  match config.recipe with
  | No_preprocessing -> default_pool ~jobs:(max 1 jobs)
  | Fixed _ | Random_policy _ | Agent _ ->
    let eda_conventional =
      { config with mapper = Lutmap.Mapper.default_config }
    in
    let fixed =
      [
        direct ~heuristic:`Evsids ~restarts:`Luby "direct/evsids/luby";
        lane "eda/evsids/luby" config `Evsids `Luby;
        direct ~heuristic:`Lrb ~restarts:`Glucose "direct/lrb/glucose";
        lane "een2007/evsids/glucose" een2007 `Evsids `Glucose;
        direct ~heuristic:`Evsids ~restarts:`Glucose "direct/evsids/glucose";
        lane "eda-conventional/lrb/luby" eda_conventional `Lrb `Luby;
        direct ~heuristic:`Lrb ~restarts:`Luby "direct/lrb/luby";
        lane "een2007/lrb/glucose" een2007 `Lrb `Glucose;
      ]
    in
    let jobs = max 1 jobs in
    if jobs <= List.length fixed then List.filteri (fun i _ -> i < jobs) fixed
    else
      fixed
      @ List.map
          (fun (name, h, r) ->
            direct ~heuristic:h ~restarts:r ("extra/" ^ name))
          (grid (jobs - List.length fixed))

let run_portfolio ?(limits = Sat.Solver.no_limits) ?(jobs = 4)
    ?(share_lbd = 4) ?proof ?log config inst =
  let fl = Cnf.Flat.of_formula (Instance.direct_formula inst) in
  let strategies = portfolio_strategies ~jobs config inst in
  let outcome =
    Portfolio.Runner.run ~jobs ~share_lbd ~limits ?proof ?log strategies fl
  in
  let report =
    {
      (blank_report inst ~vars:fl.Cnf.Flat.num_vars
         ~clauses:(Cnf.Flat.num_clauses fl))
      with
      t_solve = outcome.Portfolio.Runner.wall;
      result = outcome.Portfolio.Runner.result;
      solver_stats = outcome.Portfolio.Runner.stats;
    }
  in
  (report, outcome)

let solve_cube ?(limits = Sat.Solver.no_limits) ?cubes ?probe_limit ?jobs
    ?proof ?log inst =
  let f = Instance.direct_formula inst in
  let cr =
    Portfolio.Cuber.solve ?cubes ?probe_limit ?jobs ~limits ?proof ?log
      (Cnf.Flat.of_formula f)
  in
  let report =
    {
      (blank_report inst ~vars:f.Cnf.Formula.num_vars
         ~clauses:(Cnf.Formula.num_clauses f))
      with
      t_solve = cr.Portfolio.Cuber.wall;
      result = cr.Portfolio.Cuber.result;
      solver_stats = cr.Portfolio.Cuber.stats;
    }
  in
  (report, cr)

let reduction ~baseline r =
  let tb = t_all baseline in
  if tb <= 0.0 then 0.0 else 100.0 *. (tb -. t_all r) /. tb

let pp_report ppf r =
  Format.fprintf ppf
    "%s: vars=%d clauses=%d t_agent=%.3f t_trans=%.3f t_solve=%.3f t_all=%.3f %s"
    r.instance r.vars r.clauses r.t_agent r.t_trans r.t_solve (t_all r)
    (match r.result with
     | Sat.Solver.Sat _ -> "SAT"
     | Sat.Solver.Unsat -> "UNSAT"
     | Sat.Solver.Unknown -> "UNKNOWN")
