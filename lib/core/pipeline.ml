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

(* Wall-clock timing (monotonic): the paper's T_agent/T_trans/T_solve
   decomposition is about elapsed time, and under the portfolio several
   domains share the process, so [Sys.time] (process CPU) would
   over-count by the domain fan-out. *)
let timed f =
  let t0 = Sat.Wall.now () in
  let x = f () in
  (x, Sat.Wall.now () -. t0)

(* The final solve, optionally through the proof-carrying CNF-level
   simplifier (the paper keeps Kissat's own preprocessing on under the
   circuit pipeline; [Cnf.Simplify] is that layer here).  The same
   recorder observes simplification and search, so an [Unsat] answer
   carries one end-to-end DRAT stream checkable against [f], and a
   [Sat] model is lifted back over [f]'s variables with
   [Cnf.Simplify.reconstruct]. *)
let solve_formula ~limits ?proof ~simplify f =
  if not simplify then Sat.Solver.solve ~limits ?proof f
  else
    match Cnf.Simplify.run ?proof f with
    | Cnf.Simplify.Proved_unsat -> (Sat.Solver.Unsat, Sat.Solver.empty_stats)
    | Cnf.Simplify.Simplified simp ->
      let result, stats =
        Sat.Solver.solve ~limits ?proof (Cnf.Simplify.formula simp)
      in
      (match result with
       | Sat.Solver.Sat m ->
         (Sat.Solver.Sat (Cnf.Simplify.reconstruct simp m), stats)
       | r -> (r, stats))

let solve_direct ?(limits = Sat.Solver.no_limits) ?proof ?(simplify = false)
    inst =
  let f = Instance.direct_formula inst in
  let (result, stats), t_solve =
    timed (fun () -> solve_formula ~limits ?proof ~simplify f)
  in
  {
    instance = inst.Instance.name;
    recipe_used = [];
    vars = f.Cnf.Formula.num_vars;
    clauses = Cnf.Formula.num_clauses f;
    t_agent = 0.0;
    t_trans = 0.0;
    t_solve;
    result;
    solver_stats = stats;
    aig_before = None;
    aig_after = None;
    netlist_luts = 0;
    netlist_levels = 0;
  }

exception Interrupted

(* Apply a recipe one operation at a time, polling the cancellation
   hook between operations so a portfolio lane that already lost the
   race can abandon an expensive synthesis run. *)
let apply_ops ~should_stop ops g0 =
  List.fold_left
    (fun g op ->
      if should_stop () then raise Interrupted;
      Synth.Recipe.apply op g)
    g0 ops

(* Select the synthesis recipe, charging Q-network/embedding time to
   t_agent and synthesis time to t_trans. *)
let run_recipe ~should_stop config g0 =
  match config.recipe with
  | No_preprocessing -> (g0, [], 0.0, 0.0)
  | Fixed ops ->
    let g, t_synth = timed (fun () -> apply_ops ~should_stop ops g0) in
    (g, ops, 0.0, t_synth)
  | Random_policy { seed; steps } ->
    let rng = Aig.Rng.create seed in
    let ops =
      List.init steps (fun _ ->
          (* Random over the non-End operations, as in §4.3 (the random
             agent always runs T operations). *)
          Synth.Recipe.op_of_index (Aig.Rng.int rng 4))
    in
    let g, t_synth = timed (fun () -> apply_ops ~should_stop ops g0) in
    (g, ops, 0.0, t_synth)
  | Agent (agent, max_steps) ->
    let st, t_embed =
      timed (fun () -> State.of_initial ~embed_config:config.embed g0)
    in
    let t_agent = ref t_embed and t_synth = ref 0.0 in
    let g = ref g0 and ops = ref [] in
    (try
       for _t = 1 to max_steps do
         if should_stop () then raise Interrupted;
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

let transform ?(should_stop = fun () -> false) config inst =
  let check () = if should_stop () then raise Interrupted in
  match config.recipe with
  | No_preprocessing ->
    let f = Instance.direct_formula inst in
    ( f,
      {
        instance = inst.Instance.name;
        recipe_used = [];
        vars = f.Cnf.Formula.num_vars;
        clauses = Cnf.Formula.num_clauses f;
        t_agent = 0.0;
        t_trans = 0.0;
        t_solve = 0.0;
        result = Unknown;
        solver_stats = Sat.Solver.empty_stats;
        aig_before = None;
        aig_after = None;
        netlist_luts = 0;
        netlist_levels = 0;
      } )
  | Fixed _ | Random_policy _ | Agent _ ->
    let g0, t_to_aig =
      timed (fun () -> Instance.to_aig ~advanced:config.advanced_recovery inst)
    in
    check ();
    let before = Aig.Stats.snapshot g0 in
    Log.debug (fun m ->
        m "%s: G0 has %d ANDs, depth %d (to_aig %.3fs)" inst.Instance.name
          before.Aig.Stats.area before.Aig.Stats.depth t_to_aig);
    let g, recipe_used, t_agent, t_synth = run_recipe ~should_stop config g0 in
    check ();
    let after = Aig.Stats.snapshot g in
    Log.debug (fun m ->
        m "%s: recipe [%s] -> %d ANDs, depth %d (synth %.3fs)"
          inst.Instance.name
          (Synth.Recipe.to_string recipe_used)
          after.Aig.Stats.area after.Aig.Stats.depth t_synth);
    let nl, t_map =
      timed (fun () -> Lutmap.Mapper.run ~config:config.mapper g)
    in
    check ();
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
        instance = inst.Instance.name;
        recipe_used;
        vars = f.Cnf.Formula.num_vars;
        clauses = Cnf.Formula.num_clauses f;
        t_agent;
        t_trans = t_to_aig +. t_synth +. t_map +. t_enc;
        t_solve = 0.0;
        result = Unknown;
        solver_stats = Sat.Solver.empty_stats;
        aig_before = Some before;
        aig_after = Some after;
        netlist_luts = Lutmap.Netlist.num_luts nl;
        netlist_levels = Lutmap.Netlist.depth nl;
      } )

let run ?(limits = Sat.Solver.no_limits) ?proof ?(simplify = false) config
    inst =
  match config.recipe with
  | No_preprocessing -> solve_direct ~limits ?proof ~simplify inst
  | Fixed _ | Random_policy _ | Agent _ ->
    let f, rep = transform config inst in
    let (result, stats), t_solve =
      timed (fun () -> solve_formula ~limits ?proof ~simplify f)
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

(* The racing lanes.  Direct lanes (solving the instance's own CNF,
   share group 0) interleave with EDA lanes that run Algorithm 1 first:
   preprocessing itself is a portfolio member, paying its T_trans
   inside its own lane while the direct lanes already solve.  A lane's
   transformed CNF is equisatisfiable with — but different from — the
   input, so EDA lanes never exchange clauses with direct lanes
   (distinct share groups; see {!Portfolio.Strategy}).

   CNF-simplification lanes run [Cnf.Simplify] on the direct formula
   as their preparation.  Like the EDA lanes they must not share with
   group 0 (a BVE resolvent set has different models than the input),
   but unlike them the simplifier is deterministic over the same
   input, so all simplify lanes solve the identical formula and form
   their own share group (1).  Their preparation also returns
   [Cnf.Simplify.reconstruct] as the model lift, so a winning [Sat]
   answer is reported over the input formula's variables. *)
let simplify_share_group = 1

let simplify_lane inst heuristic restarts name =
  Portfolio.Strategy.prepared_lifted ~heuristic ~restarts
    ~share_group:simplify_share_group name (fun ~stop:_ ->
      let f = Instance.direct_formula inst in
      match Cnf.Simplify.run f with
      | Cnf.Simplify.Proved_unsat ->
        (* Refuted during preparation: hand the solver a trivially
           unsatisfiable stand-in so the lane answers [Unsat]
           immediately. *)
        (Cnf.Formula.create ~num_vars:f.Cnf.Formula.num_vars [ [||] ], None)
      | Cnf.Simplify.Simplified simp ->
        (Cnf.Simplify.formula simp, Some (Cnf.Simplify.reconstruct simp)))

let portfolio_strategies ?(jobs = 4) config inst =
  let open Portfolio.Strategy in
  let lane name cfg heuristic restarts =
    prepared ~heuristic ~restarts name (fun ~stop ->
        fst (transform ~should_stop:stop cfg inst))
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
        simplify_lane inst `Lrb `Glucose "simplify/lrb/glucose";
        direct ~heuristic:`Lrb ~restarts:`Glucose "direct/lrb/glucose";
        lane "een2007/evsids/glucose" een2007 `Evsids `Glucose;
        simplify_lane inst `Evsids `Glucose "simplify/evsids/glucose";
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
  let f = Instance.direct_formula inst in
  let strategies = portfolio_strategies ~jobs config inst in
  let outcome =
    Portfolio.Runner.run ~jobs ~share_lbd ~limits ?proof ?log strategies f
  in
  let report =
    {
      instance = inst.Instance.name;
      recipe_used = [];
      vars = f.Cnf.Formula.num_vars;
      clauses = Cnf.Formula.num_clauses f;
      t_agent = 0.0;
      t_trans = 0.0;
      t_solve = outcome.Portfolio.Runner.wall;
      result = outcome.Portfolio.Runner.result;
      solver_stats = outcome.Portfolio.Runner.stats;
      aig_before = None;
      aig_after = None;
      netlist_luts = 0;
      netlist_levels = 0;
    }
  in
  (report, outcome)

let solve_cube ?(limits = Sat.Solver.no_limits) ?cubes ?probe_limit ?jobs
    ?proof ?interrupt ?log inst =
  let f = Instance.direct_formula inst in
  let cr =
    Portfolio.Cuber.solve ?cubes ?probe_limit ?jobs ~limits ?proof ?interrupt
      ?log f
  in
  let report =
    {
      instance = inst.Instance.name;
      recipe_used = [];
      vars = f.Cnf.Formula.num_vars;
      clauses = Cnf.Formula.num_clauses f;
      t_agent = 0.0;
      t_trans = 0.0;
      t_solve = cr.Portfolio.Cuber.wall;
      result = cr.Portfolio.Cuber.result;
      solver_stats = cr.Portfolio.Cuber.stats;
      aig_before = None;
      aig_after = None;
      netlist_luts = 0;
      netlist_levels = 0;
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
