type ctx = {
  scale : float;
  limits : Sat.Solver.limits;
  agent : Rl.Dqn.t option;
  training_count : int;
  seed : int;
}

let default_ctx =
  {
    scale = 1.0;
    limits =
      { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some 120.0 };
    agent = None;
    training_count = 40;
    seed = 2024;
  }

let fmt_f = Table.fmt_f
let fmt_pct = Table.fmt_pct

let result_string = function
  | Sat.Solver.Sat _ -> "SAT"
  | Sat.Solver.Unsat -> "UNSAT"
  | Sat.Solver.Unknown -> "TO"

let solve_cell r =
  match r.Eda4sat.Pipeline.result with
  | Sat.Solver.Unknown -> "TO"
  | Sat.Solver.Sat _ | Sat.Solver.Unsat -> fmt_f r.Eda4sat.Pipeline.t_solve

let train_agent ?(episodes = 40) ctx =
  let instances =
    Workloads.Suites.training_set ~scale:ctx.scale
      ~count:(max 8 (ctx.training_count / 2))
      ()
  in
  let env_config =
    {
      Eda4sat.Env.default_config with
      Eda4sat.Env.seed = ctx.seed;
      reward_limits =
        {
          Sat.Solver.no_limits with
          Sat.Solver.max_decisions = Some 100_000;
          max_seconds = Some 15.0;
        };
    }
  in
  let agent, _history =
    Eda4sat.Trainer.train ~env_config instances ~episodes
  in
  agent

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let stats_row name values =
  let n = float_of_int (Array.length values) in
  let avg = Array.fold_left ( +. ) 0.0 values /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. avg) ** 2.0)) 0.0 values /. n
  in
  let mn = Array.fold_left min infinity values
  and mx = Array.fold_left max neg_infinity values in
  [ name; fmt_f avg; fmt_f (sqrt var); fmt_f mn; fmt_f mx ]

let table1 ctx =
  let instances =
    Workloads.Suites.training_set ~scale:ctx.scale ~count:ctx.training_count ()
  in
  let gates = Array.map (fun g -> float_of_int (Aig.Graph.num_ands g)) instances in
  let pis = Array.map (fun g -> float_of_int (Aig.Graph.num_pis g)) instances in
  let depths = Array.map (fun g -> float_of_int (Aig.Graph.depth g)) instances in
  let formulas =
    Array.map
      (fun g -> (Cnf.Tseitin.encode ~assert_outputs:true g).Cnf.Tseitin.formula)
      instances
  in
  let clauses =
    Array.map (fun f -> float_of_int (Cnf.Formula.num_clauses f)) formulas
  in
  let times =
    Array.map
      (fun f ->
        let _, st = Sat.Solver.solve ~limits:ctx.limits f in
        st.Sat.Solver.time)
      formulas
  in
  {
    Table.title = "Table 1: Statistics of the training dataset";
    header = [ ""; "Avg."; "Std."; "Min."; "Max." ];
    rows =
      [
        stats_row "# Gates" gates;
        stats_row "# PIs" pis;
        stats_row "Depth" depths;
        stats_row "# Clauses" clauses;
        stats_row "Time (s)" times;
      ];
    notes =
      [
        Printf.sprintf "%d generated LEC miters (paper: 200 industrial, \
                        avg 4299 gates / 10687 clauses / 2.01 s)"
          (Array.length instances);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 ctx =
  let all =
    Workloads.Suites.i_suite ~scale:ctx.scale ()
    @ Workloads.Suites.c_suite ~scale:ctx.scale ()
  in
  let rows =
    List.map
      (fun (name, inst) ->
        let r = Eda4sat.Pipeline.solve_direct ~limits:ctx.limits inst in
        [
          name;
          (match Eda4sat.Instance.num_gates inst with
           | Some g -> string_of_int g
           | None -> "N/A");
          string_of_int r.Eda4sat.Pipeline.vars;
          string_of_int r.Eda4sat.Pipeline.clauses;
          solve_cell r;
          result_string r.Eda4sat.Pipeline.result;
        ])
      all
  in
  {
    Table.title = "Table 2: Characteristics of testing cases";
    header = [ "Case"; "# Gates"; "# Vars"; "# Clas"; "T_solve"; "Result" ];
    rows;
    notes =
      [
        "C cases are CNF instances without natural circuit structure \
         (paper: SAT Competition 2022 picks)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Shared pipeline runs over the LEC suite (Tables 3, 4, 5, 7). *)

type lec_run = {
  name : string;
  inst : Eda4sat.Instance.t;
  baseline : Eda4sat.Pipeline.report;
  een : Eda4sat.Pipeline.report;
  ours : Eda4sat.Pipeline.report;
  ours_norl : Eda4sat.Pipeline.report;
  ours_conv : Eda4sat.Pipeline.report;
}

let lec_runs ctx =
  let ours_cfg = Eda4sat.Pipeline.ours ?agent:ctx.agent () in
  let conv_cfg = Eda4sat.Pipeline.ours_conventional_mapper ?agent:ctx.agent () in
  List.map
    (fun (name, inst) ->
      {
        name;
        inst;
        baseline = Eda4sat.Pipeline.run ~limits:ctx.limits
            Eda4sat.Pipeline.baseline inst;
        een = Eda4sat.Pipeline.run ~limits:ctx.limits Eda4sat.Pipeline.een2007
            inst;
        ours = Eda4sat.Pipeline.run ~limits:ctx.limits ours_cfg inst;
        ours_norl =
          Eda4sat.Pipeline.run ~limits:ctx.limits
            (Eda4sat.Pipeline.ours_without_rl ~seed:(ctx.seed + 17))
            inst;
        ours_conv = Eda4sat.Pipeline.run ~limits:ctx.limits conv_cfg inst;
      })
    (Workloads.Suites.i_suite ~scale:ctx.scale ())

let avg f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
               /. float_of_int (List.length xs)

let table3_of_runs runs =
  let row r =
    let red rep =
      Eda4sat.Pipeline.reduction ~baseline:r.baseline rep
    in
    [
      r.name;
      solve_cell r.baseline;
      string_of_int r.een.Eda4sat.Pipeline.vars;
      string_of_int r.een.Eda4sat.Pipeline.clauses;
      fmt_f r.een.Eda4sat.Pipeline.t_trans;
      solve_cell r.een;
      fmt_f (Eda4sat.Pipeline.t_all r.een);
      fmt_pct (red r.een);
      string_of_int r.ours.Eda4sat.Pipeline.vars;
      string_of_int r.ours.Eda4sat.Pipeline.clauses;
      fmt_f r.ours.Eda4sat.Pipeline.t_agent;
      fmt_f r.ours.Eda4sat.Pipeline.t_trans;
      solve_cell r.ours;
      fmt_f (Eda4sat.Pipeline.t_all r.ours);
      fmt_pct (red r.ours);
    ]
  in
  let avg_row =
    [
      "Avg.";
      fmt_f (avg (fun r -> r.baseline.Eda4sat.Pipeline.t_solve) runs);
      ""; ""; ""; "";
      fmt_f (avg (fun r -> Eda4sat.Pipeline.t_all r.een) runs);
      fmt_pct
        (avg (fun r -> Eda4sat.Pipeline.reduction ~baseline:r.baseline r.een)
           runs);
      ""; ""; ""; ""; "";
      fmt_f (avg (fun r -> Eda4sat.Pipeline.t_all r.ours) runs);
      fmt_pct
        (avg (fun r -> Eda4sat.Pipeline.reduction ~baseline:r.baseline r.ours)
           runs);
    ]
  in
  {
    Table.title = "Table 3: Solving time comparison on LEC cases";
    header =
      [ "Case"; "Base T_s"; "[15]#V"; "[15]#C"; "[15]T_tr"; "[15]T_s";
        "[15]T_all"; "[15]Red."; "Our#V"; "Our#C"; "T_ag"; "T_tr"; "T_s";
        "T_all"; "Red." ];
    rows = List.map row runs @ [ avg_row ];
    notes =
      [
        Printf.sprintf
          "paper averages: [15] T_all 92.54 s / Red. %.2f%%; Ours T_all \
           15.63 s / Red. %.2f%%"
          Paper.avg_reduction_lec_een Paper.avg_reduction_lec_ours;
      ];
  }

let table3 ctx = table3_of_runs (lec_runs ctx)

let table4_of_runs runs =
  let row r =
    [
      r.name;
      solve_cell r.baseline;
      string_of_int r.ours_norl.Eda4sat.Pipeline.vars;
      string_of_int r.ours_norl.Eda4sat.Pipeline.clauses;
      fmt_f r.ours_norl.Eda4sat.Pipeline.t_trans;
      solve_cell r.ours_norl;
      fmt_f (Eda4sat.Pipeline.t_all r.ours_norl);
      solve_cell r.ours;
      fmt_f (Eda4sat.Pipeline.t_all r.ours);
    ]
  in
  let avg_row =
    [
      "Avg."; ""; ""; ""; ""; "";
      fmt_f (avg (fun r -> Eda4sat.Pipeline.t_all r.ours_norl) runs);
      "";
      fmt_f (avg (fun r -> Eda4sat.Pipeline.t_all r.ours) runs);
    ]
  in
  {
    Table.title = "Table 4: With vs. without the RL agent";
    header =
      [ "Case"; "Base T_s"; "w/o #V"; "w/o #C"; "w/o T_tr"; "w/o T_s";
        "w/o T_all"; "w/ T_s"; "w/ T_all" ];
    rows = List.map row runs @ [ avg_row ];
    notes =
      [
        "paper averages: w/o RL T_all 53.98 s, w/ RL 15.63 s (2.45x)";
        "the w/o-RL agent applies 10 uniformly random synthesis operations";
      ];
  }

let table4 ctx = table4_of_runs (lec_runs ctx)

let table5_of_runs runs =
  let row r =
    [
      r.name;
      solve_cell r.baseline;
      string_of_int r.ours_conv.Eda4sat.Pipeline.vars;
      string_of_int r.ours_conv.Eda4sat.Pipeline.clauses;
      fmt_f r.ours_conv.Eda4sat.Pipeline.t_trans;
      solve_cell r.ours_conv;
      fmt_f r.ours.Eda4sat.Pipeline.t_trans;
      solve_cell r.ours;
    ]
  in
  let avg_row =
    [
      "Avg."; ""; ""; "";
      fmt_f (avg (fun r -> r.ours_conv.Eda4sat.Pipeline.t_trans) runs);
      fmt_f (avg (fun r -> r.ours_conv.Eda4sat.Pipeline.t_solve) runs);
      fmt_f (avg (fun r -> r.ours.Eda4sat.Pipeline.t_trans) runs);
      fmt_f (avg (fun r -> r.ours.Eda4sat.Pipeline.t_solve) runs);
    ]
  in
  {
    Table.title = "Table 5: Conventional vs. cost-customized mapper";
    header =
      [ "Case"; "Base T_s"; "Conv#V"; "Conv#C"; "ConvT_tr"; "ConvT_s";
        "OurT_tr"; "OurT_s" ];
    rows = List.map row runs @ [ avg_row ];
    notes =
      [
        "paper averages: conventional T_solve 3.07 s vs ours 1.91 s \
         (60.73% longer), with near-equal T_trans";
      ];
  }

let table5 ctx = table5_of_runs (lec_runs ctx)

(* ------------------------------------------------------------------ *)
(* Table 6: the CNF suite. *)

type cnf_run = {
  cname : string;
  cbaseline : Eda4sat.Pipeline.report;
  ceen : Eda4sat.Pipeline.report;
  cours : Eda4sat.Pipeline.report;
}

let cnf_runs ctx =
  let ours_cfg = Eda4sat.Pipeline.ours ?agent:ctx.agent () in
  List.map
    (fun (cname, inst) ->
      {
        cname;
        cbaseline =
          Eda4sat.Pipeline.run ~limits:ctx.limits Eda4sat.Pipeline.baseline
            inst;
        ceen =
          Eda4sat.Pipeline.run ~limits:ctx.limits Eda4sat.Pipeline.een2007
            inst;
        cours = Eda4sat.Pipeline.run ~limits:ctx.limits ours_cfg inst;
      })
    (Workloads.Suites.c_suite ~scale:ctx.scale ())

let table6_of_runs ctx runs =
  (* Timeouts are charged the full budget, as the paper charges 1000 s. *)
  let budget =
    Option.value ctx.limits.Sat.Solver.max_seconds ~default:1000.0
  in
  let charged r =
    match r.Eda4sat.Pipeline.result with
    | Sat.Solver.Unknown ->
      r.Eda4sat.Pipeline.t_agent +. r.Eda4sat.Pipeline.t_trans +. budget
    | Sat.Solver.Sat _ | Sat.Solver.Unsat -> Eda4sat.Pipeline.t_all r
  in
  let red base r = 100.0 *. (charged base -. charged r) /. charged base in
  let row r =
    [
      r.cname;
      solve_cell r.cbaseline;
      string_of_int r.ceen.Eda4sat.Pipeline.vars;
      string_of_int r.ceen.Eda4sat.Pipeline.clauses;
      fmt_f r.ceen.Eda4sat.Pipeline.t_trans;
      solve_cell r.ceen;
      fmt_f (charged r.ceen);
      fmt_pct (red r.cbaseline r.ceen);
      string_of_int r.cours.Eda4sat.Pipeline.vars;
      string_of_int r.cours.Eda4sat.Pipeline.clauses;
      fmt_f r.cours.Eda4sat.Pipeline.t_agent;
      fmt_f r.cours.Eda4sat.Pipeline.t_trans;
      solve_cell r.cours;
      fmt_f (charged r.cours);
      fmt_pct (red r.cbaseline r.cours);
    ]
  in
  let avg_row =
    [
      "Avg.";
      fmt_f (avg (fun r -> charged r.cbaseline) runs);
      ""; ""; ""; "";
      fmt_f (avg (fun r -> charged r.ceen) runs);
      fmt_pct (avg (fun r -> red r.cbaseline r.ceen) runs);
      ""; ""; ""; "";
      "";
      fmt_f (avg (fun r -> charged r.cours) runs);
      fmt_pct (avg (fun r -> red r.cbaseline r.cours) runs);
    ]
  in
  {
    Table.title =
      "Table 6: Solving time comparison on SAT-competition-style CNFs";
    header =
      [ "Case"; "Base T_s"; "[15]#V"; "[15]#C"; "[15]T_tr"; "[15]T_s";
        "[15]T_all"; "[15]Red."; "Our#V"; "Our#C"; "T_ag"; "T_tr"; "T_s";
        "T_all"; "Red." ];
    rows = List.map row runs @ [ avg_row ];
    notes =
      [
        Printf.sprintf
          "paper averages: [15] Red. %.2f%% vs Ours Red. %.2f%% (2.19x); \
           transformed instances may have MORE clauses yet solve faster"
          Paper.avg_reduction_cnf_een Paper.avg_reduction_cnf_ours;
      ];
  }

let table6 ctx = table6_of_runs ctx (cnf_runs ctx)

(* ------------------------------------------------------------------ *)
(* Table 7: circuit size before/after. *)

let table7_rows ctx lruns cruns =
  let before_stats inst =
    let g = Eda4sat.Instance.to_aig inst in
    let levs = max 1 (Aig.Graph.depth g) in
    (Aig.Graph.num_ands g, levs,
     float_of_int (Aig.Graph.num_ands g) /. float_of_int levs)
  in
  ignore ctx;
  let row name inst (ours : Eda4sat.Pipeline.report) =
    let gates, levs, gpl = before_stats inst in
    let nluts = ours.Eda4sat.Pipeline.netlist_luts in
    let nlevs = max 1 ours.Eda4sat.Pipeline.netlist_levels in
    [
      name;
      string_of_int gates;
      string_of_int levs;
      fmt_f gpl;
      string_of_int nluts;
      string_of_int ours.Eda4sat.Pipeline.netlist_levels;
      fmt_f (float_of_int nluts /. float_of_int nlevs);
    ]
  in
  List.map (fun r -> row r.name r.inst r.ours) lruns
  @ List.map
      (fun r ->
        let inst =
          List.assoc r.cname (Workloads.Suites.c_suite ~scale:ctx.scale ())
        in
        row r.cname inst r.cours)
      cruns

let table7_of_runs ctx lruns cruns =
  {
    Table.title = "Table 7: Circuit size before and after preprocessing";
    header =
      [ "Case"; "# Gates"; "# Levs"; "Gates/Lev"; "# LUTs"; "# Levs";
        "LUTs/Lev" ];
    rows = table7_rows ctx lruns cruns;
    notes =
      [
        "paper: I cases avg 217.37 gates/lev before vs 79.33 LUTs/lev \
         after; C cases 2.66 (narrow recovered AIGs) vs 482.62 (flat LUT \
         netlists)";
      ];
  }

let table7 ctx = table7_of_runs ctx (lec_runs ctx) (cnf_runs ctx)

(* ------------------------------------------------------------------ *)
(* Figures *)

let figure2 () =
  (* Rewrite example: redundant (a&b)|(a&c) cone shrinks. *)
  let g1 = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g1 0
  and b = Aig.Graph.pi g1 1
  and c = Aig.Graph.pi g1 2 in
  Aig.Graph.add_po g1
    (Aig.Graph.or_ g1 (Aig.Graph.and_ g1 a b) (Aig.Graph.and_ g1 a c));
  let r1 = Synth.Rewrite.run g1 in
  (* Balance example: a 6-input AND chain. *)
  let g2 = Aig.Graph.create ~num_pis:6 in
  let acc = ref (Aig.Graph.pi g2 0) in
  for i = 1 to 5 do
    acc := Aig.Graph.and_ g2 !acc (Aig.Graph.pi g2 i)
  done;
  Aig.Graph.add_po g2 !acc;
  let r2 = Synth.Balance.run g2 in
  {
    Table.title = "Figure 2: rewrite and balance examples";
    header = [ "Example"; "Metric"; "Before"; "After" ];
    rows =
      [
        [ "rewrite (a.b + a.c)"; "AND nodes";
          string_of_int (Aig.Graph.num_ands g1);
          string_of_int (Aig.Graph.num_ands r1) ];
        [ "balance (6-input AND chain)"; "depth";
          string_of_int (Aig.Graph.depth g2);
          string_of_int (Aig.Graph.depth r2) ];
      ];
    notes = [ "both transformations are functionally verified in the tests" ];
  }

let figure4 () =
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  let c f = Lutmap.Cost.branching f in
  let worst4, best4 =
    List.fold_left
      (fun (w, b) f ->
        let v = Lutmap.Cost.branching f in
        (max w v, min b v))
      (0, max_int)
      (Aig.Npn.all_class_representatives 4)
  in
  {
    Table.title = "Figure 4: branching complexity of LUTs";
    header = [ "LUT"; "C (measured)"; "C (paper)" ];
    rows =
      [
        [ "AND2 (L1)"; string_of_int (c (Aig.Tt.and_ x0 x1));
          string_of_int Paper.branching_and2 ];
        [ "XOR2 (L2)"; string_of_int (c (Aig.Tt.xor_ x0 x1));
          string_of_int Paper.branching_xor2 ];
        [ "OR2"; string_of_int (c (Aig.Tt.or_ x0 x1)); "-" ];
        [ "4-input worst (parity)"; string_of_int worst4; "-" ];
        [ "4-input best (constant)"; string_of_int best4; "-" ];
      ];
    notes =
      [ "C(L) = |ISOP(f)| + |ISOP(~f)|; XOR-heavy logic branches more, \
         which is what the cost-customized mapper penalizes" ];
  }

(* ------------------------------------------------------------------ *)

let table ctx = function
  | 1 -> table1 ctx
  | 2 -> table2 ctx
  | 3 -> table3 ctx
  | 4 -> table4 ctx
  | 5 -> table5 ctx
  | 6 -> table6 ctx
  | 7 -> table7 ctx
  | _ -> failwith "tables are numbered 1..7"

let figure = function
  | 2 -> figure2 ()
  | 4 -> figure4 ()
  | _ -> failwith "data-bearing figures are 2 and 4"

let run_all ctx =
  let buf = Buffer.create 16384 in
  let add t = Buffer.add_string buf (Table.render t ^ "\n") in
  add (table1 ctx);
  add (table2 ctx);
  let lruns = lec_runs ctx in
  let cruns = cnf_runs ctx in
  add (table3_of_runs lruns);
  add (table4_of_runs lruns);
  add (table5_of_runs lruns);
  add (table6_of_runs ctx cruns);
  add (table7_of_runs ctx lruns cruns);
  add (figure2 ());
  add (figure4 ());
  Buffer.contents buf
