(* Tests for the eda4sat core: instances, RL state, Algorithm 1
   pipeline (including satisfiability preservation), environment and
   trainer. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_miter ~buggy seed =
  Workloads.Lec.generate ~buggy ~seed ~num_pis:8 ~num_ands:60 ()

let result_kind = function
  | Sat.Solver.Sat _ -> `Sat
  | Sat.Solver.Unsat -> `Unsat
  | Sat.Solver.Unknown -> `Unknown

(* ------------------------------------------------------------------ *)
(* Instance *)

let test_instance_cnf () =
  let f = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -3 |] ] in
  let inst = Eda4sat.Instance.of_cnf ~name:"t" f in
  check "vars" 3 (Eda4sat.Instance.num_vars inst);
  check "clauses" 2 (Eda4sat.Instance.num_clauses inst);
  check_bool "no gate count" true (Eda4sat.Instance.num_gates inst = None);
  let g = Eda4sat.Instance.to_aig inst in
  check "single po" 1 (Aig.Graph.num_pos g)

let test_instance_circuit () =
  let g = small_miter ~buggy:false 1 in
  let inst = Eda4sat.Instance.of_circuit ~name:"m" g in
  check_bool "gate count" true
    (Eda4sat.Instance.num_gates inst = Some (Aig.Graph.num_ands g));
  let f = Eda4sat.Instance.direct_formula inst in
  check_bool "tseitin vars" true (f.Cnf.Formula.num_vars > 8)

(* ------------------------------------------------------------------ *)
(* State *)

let test_state () =
  let g = small_miter ~buggy:false 2 in
  let st = Eda4sat.State.of_initial g in
  let s = Eda4sat.State.observe st g in
  check "dim matches" (Eda4sat.State.dim Deepgate.Embedding.default_config)
    (Array.length s);
  (* Ratios w.r.t. self are 1. *)
  Alcotest.(check (float 1e-9)) "area ratio" 1.0 s.(0);
  Alcotest.(check (float 1e-9)) "depth ratio" 1.0 s.(1);
  (* After synthesis the ratios drop below or stay at 1. *)
  let g' = Synth.Rewrite.run g in
  let s' = Eda4sat.State.observe st g' in
  check_bool "area ratio shrinks" true (s'.(0) <= 1.0 +. 1e-9);
  (* The embedding part is unchanged (it is D(G0)). *)
  for i = 6 to Array.length s - 1 do
    Alcotest.(check (float 0.0)) "frozen embedding" s.(i) s'.(i)
  done

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_agreement_on_miters () =
  (* Baseline, [15] and ours must agree on satisfiability. *)
  List.iter
    (fun (buggy, seed) ->
      let inst =
        Eda4sat.Instance.of_circuit ~name:"m" (small_miter ~buggy seed)
      in
      let rb = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
      let re = Eda4sat.Pipeline.run Eda4sat.Pipeline.een2007 inst in
      let ro = Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours ()) inst in
      let expected = if buggy then `Sat else `Unsat in
      check_bool "baseline verdict" true
        (result_kind rb.Eda4sat.Pipeline.result = expected);
      check_bool "een2007 verdict" true
        (result_kind re.Eda4sat.Pipeline.result = expected);
      check_bool "ours verdict" true
        (result_kind ro.Eda4sat.Pipeline.result = expected);
      (* A zero-LUT netlist is legitimate: resub can collapse the whole
         miter to a constant output. *)
      check_bool "netlist sane" true (ro.Eda4sat.Pipeline.netlist_luts >= 0);
      check_bool "aig stats recorded" true
        (ro.Eda4sat.Pipeline.aig_before <> None
         && ro.Eda4sat.Pipeline.aig_after <> None))
    [ (false, 10); (true, 11); (false, 12); (true, 13) ]

let prop_pipeline_preserves_satisfiability =
  QCheck.Test.make ~name:"pipeline: equisatisfiable with direct solving"
    ~count:40
    QCheck.(triple (int_bound 100000) (int_range 4 9) (int_range 6 30))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Aig.Rng.int rng 3 in
            Array.init len (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = Cnf.Formula.create ~num_vars:nvars clauses in
      let inst = Eda4sat.Instance.of_cnf ~name:"q" f in
      let rb = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
      let ro = Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours ()) inst in
      result_kind rb.Eda4sat.Pipeline.result
      = result_kind ro.Eda4sat.Pipeline.result)

let test_pipeline_random_policy_and_reduction () =
  let inst =
    Eda4sat.Instance.of_circuit ~name:"m" (small_miter ~buggy:false 20)
  in
  let rb = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
  let rr =
    Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours_without_rl ~seed:5) inst
  in
  check_bool "random policy verdict" true
    (result_kind rr.Eda4sat.Pipeline.result = `Unsat);
  check "10 random ops" 10 (List.length rr.Eda4sat.Pipeline.recipe_used);
  (* reduction is 100*(tb - t)/tb. *)
  let red = Eda4sat.Pipeline.reduction ~baseline:rb rr in
  check_bool "reduction bounded above" true (red <= 100.0);
  let same = Eda4sat.Pipeline.reduction ~baseline:rb rb in
  Alcotest.(check (float 1e-9)) "self reduction" 0.0 same

let test_pipeline_agent_recipe () =
  (* An untrained agent still yields a valid run and a recorded recipe
     no longer than T. *)
  let env_cfg = Eda4sat.Env.default_config in
  let agent = Rl.Dqn.create (Eda4sat.Trainer.dqn_config_for env_cfg) in
  let inst =
    Eda4sat.Instance.of_circuit ~name:"m" (small_miter ~buggy:false 21)
  in
  let cfg = Eda4sat.Pipeline.ours ~agent ~max_steps:3 () in
  let r = Eda4sat.Pipeline.run cfg inst in
  check_bool "verdict" true (result_kind r.Eda4sat.Pipeline.result = `Unsat);
  check_bool "recipe bounded" true
    (List.length r.Eda4sat.Pipeline.recipe_used <= 3)

(* ------------------------------------------------------------------ *)
(* Env + Trainer *)

let tiny_env_config =
  {
    Eda4sat.Env.default_config with
    Eda4sat.Env.max_steps = 3;
    reward_limits =
      {
        Sat.Solver.no_limits with
        Sat.Solver.max_decisions = Some 20_000;
      };
  }

let test_env_episode () =
  let instances = [| small_miter ~buggy:false 30; small_miter ~buggy:true 31 |] in
  let env = Eda4sat.Env.make tiny_env_config instances in
  let s0 = env.Rl.Dqn.reset () in
  check "state dim" (Eda4sat.Env.state_dim tiny_env_config) (Array.length s0);
  (* Applying non-End actions runs to T then terminates with reward. *)
  let _, r1, t1 = env.Rl.Dqn.step 0 in
  check_bool "not yet terminal" true ((not t1) && r1 = 0.0);
  let _, r2, t2 = env.Rl.Dqn.step 2 in
  check_bool "still not terminal" true ((not t2) && r2 = 0.0);
  let _, r3, t3 = env.Rl.Dqn.step 0 in
  check_bool "terminal at T" true t3;
  check_bool "reward finite" true (Float.is_finite r3);
  (* End action terminates immediately after reset. *)
  ignore (env.Rl.Dqn.reset ());
  let _, r, t = env.Rl.Dqn.step (Synth.Recipe.index_of_op Synth.Recipe.End) in
  check_bool "end is terminal" true t;
  check_bool "end reward ~ 0 (nothing done)" true (Float.is_finite r)

let test_env_reward_sign () =
  (* A recipe that simplifies a redundant miter must earn nonnegative
     normalized reward. *)
  let g = small_miter ~buggy:false 33 in
  let cfg = tiny_env_config in
  let b0 = Eda4sat.Env.branching_of cfg g in
  let g' =
    Synth.Recipe.apply_sequence
      [ Synth.Recipe.Rewrite; Synth.Recipe.Resub ]
      g
  in
  let bt = Eda4sat.Env.branching_of cfg g' in
  check_bool
    (Printf.sprintf "branching reduced (%d -> %d)" b0 bt)
    true (bt <= b0)

let test_trainer_runs () =
  let instances = [| small_miter ~buggy:false 40; small_miter ~buggy:true 41 |] in
  let agent, history =
    Eda4sat.Trainer.train ~env_config:tiny_env_config instances ~episodes:5
  in
  check "history length" 5 (List.length history);
  List.iteri
    (fun i p ->
      check "episode numbering" (i + 1) p.Eda4sat.Trainer.episode;
      check_bool "reward finite" true (Float.is_finite p.Eda4sat.Trainer.reward))
    history;
  check_bool "agent usable" true
    (Array.length
       (Rl.Dqn.q_values agent
          (Array.make (Eda4sat.Env.state_dim tiny_env_config) 0.0))
     = Synth.Recipe.num_actions);
  let avg = Eda4sat.Trainer.average_reward history 3 in
  check_bool "average finite" true (Float.is_finite avg)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  [
    ("instance from cnf", `Quick, test_instance_cnf);
    ("instance from circuit", `Quick, test_instance_circuit);
    ("state vector", `Quick, test_state);
    ("pipeline agreement on miters", `Quick, test_pipeline_agreement_on_miters);
    ("pipeline random policy + reduction", `Quick,
     test_pipeline_random_policy_and_reduction);
    ("pipeline with agent", `Quick, test_pipeline_agent_recipe);
    ("env episode mechanics", `Quick, test_env_episode);
    ("env reward sign", `Quick, test_env_reward_sign);
    ("trainer runs", `Quick, test_trainer_runs);
  ]
  @ qsuite [ prop_pipeline_preserves_satisfiability ]

let test_transform_writes_solvable_cnf () =
  (* transform = Algorithm 1 without the final solve; its output must
     be equisatisfiable with the instance. *)
  let g = small_miter ~buggy:true 55 in
  let inst = Eda4sat.Instance.of_circuit ~name:"t" g in
  let f, rep = Eda4sat.Pipeline.transform (Eda4sat.Pipeline.ours ()) inst in
  check_bool "no solving happened" true
    (rep.Eda4sat.Pipeline.t_solve = 0.0
     && rep.Eda4sat.Pipeline.result = Sat.Solver.Unknown);
  check_bool "recipe recorded" true
    (rep.Eda4sat.Pipeline.recipe_used <> []);
  (match fst (Sat.Solver.solve f) with
   | Sat.Solver.Sat _ -> ()
   | _ -> Alcotest.fail "buggy miter must stay satisfiable");
  (* DIMACS round trip of the transformed formula. *)
  let f' = Cnf.Dimacs.read_string (Cnf.Dimacs.write_string f) in
  check "vars preserved" f.Cnf.Formula.num_vars f'.Cnf.Formula.num_vars

let test_pipeline_advanced_recovery () =
  (* The advanced_recovery flag must not change satisfiability. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:4 ~holes:3 in
  let inst = Eda4sat.Instance.of_cnf ~name:"php43" f in
  let cfg =
    { (Eda4sat.Pipeline.ours ()) with Eda4sat.Pipeline.advanced_recovery = true }
  in
  let r = Eda4sat.Pipeline.run cfg inst in
  check_bool "still unsat" true
    (result_kind r.Eda4sat.Pipeline.result = `Unsat)

(* Algorithm 1 on C5, the CNF-XOR instance: cnf2aig turns its 160
   width-4 XORs into outputs of their own, each maps into one LUT, and
   the solver's level-0 XOR pass, with the asserted LUT outputs as
   width-1 rows, derives clauses before search.  A model of the
   transformed CNF lifts back to C5 through the recovered circuit: the
   PI values read off the model, every other variable simulated. *)
let test_pipeline_keeps_c5_parity () =
  let inst = List.assoc "C5-cnfxor" (Workloads.Suites.c_suite ()) in
  let f = Eda4sat.Instance.direct_formula inst in
  let cfg = Eda4sat.Pipeline.ours () in
  let r = Eda4sat.Pipeline.run cfg inst in
  let st = r.Eda4sat.Pipeline.solver_stats in
  check "xors" 160 st.Sat.Solver.xors;
  check_bool "xor_derived > 0" true (st.Sat.Solver.xor_derived > 0);
  check_bool "at most 1,000 conflicts" true (st.Sat.Solver.conflicts <= 1000);
  check "one LUT per XOR" 160 r.Eda4sat.Pipeline.netlist_luts;
  match r.Eda4sat.Pipeline.result with
  | Sat.Solver.Sat m ->
    let f', _ = Eda4sat.Pipeline.transform cfg inst in
    check_bool "model of the transformed CNF" true (Cnf.Formula.eval f' m);
    let rc = Cnf.Cnf2aig.run ~advanced:cfg.Eda4sat.Pipeline.advanced_recovery f in
    check "xors recovered" 160 rc.Cnf.Cnf2aig.xors_recovered;
    (* Algorithm 1 keeps the PIs, and the encoding numbers PI i as
       variable i + 1. *)
    let sigs =
      Aig.Sim.run rc.Cnf.Cnf2aig.graph
        ~inputs:
          (Array.init (Aig.Graph.num_pis rc.Cnf.Cnf2aig.graph) (fun i ->
               [| (if m.(i) then -1L else 0L) |]))
    in
    let lifted =
      Array.init f.Cnf.Formula.num_vars (fun v ->
          (Aig.Sim.lit_row sigs rc.Cnf.Cnf2aig.var_lit.(v + 1)).(0) <> 0L)
    in
    check_bool "lifted model satisfies C5" true (Cnf.Formula.eval f lifted)
  | _ -> Alcotest.fail "C5 is satisfiable"

let suite =
  suite
  @ [
      ("transform produces solvable CNF", `Quick,
       test_transform_writes_solvable_cnf);
      ("pipeline with advanced recovery", `Quick,
       test_pipeline_advanced_recovery);
      ("pipeline keeps C5's parity structure", `Quick,
       test_pipeline_keeps_c5_parity);
    ]

(* ------------------------------------------------------------------ *)
(* Proofs and models through the pipeline *)

let test_pipeline_proof_unsat () =
  (* An UNSAT miter through transform + solve must leave one sealed
     DRAT stream that checks against the CNF handed to the solver (the
     transformed formula). *)
  let inst =
    Eda4sat.Instance.of_circuit ~name:"m" (small_miter ~buggy:false 60)
  in
  let cfg = Eda4sat.Pipeline.ours () in
  let f, _ = Eda4sat.Pipeline.transform cfg inst in
  let proof = Sat.Proof.create () in
  let r = Eda4sat.Pipeline.run ~proof cfg inst in
  check_bool "unsat" true (result_kind r.Eda4sat.Pipeline.result = `Unsat);
  check_bool "proof sealed" true (Sat.Proof.sealed proof);
  check_bool "end-to-end proof checks against the transformed CNF" true
    (Sat.Proof.check f proof)

let test_pipeline_proof_sat_models () =
  (* A SAT answer must carry a model over the solved formula's
     variables that actually satisfies it. *)
  let inst =
    Eda4sat.Instance.of_circuit ~name:"m" (small_miter ~buggy:true 61)
  in
  let cfg = Eda4sat.Pipeline.ours () in
  let f, _ = Eda4sat.Pipeline.transform cfg inst in
  let r = Eda4sat.Pipeline.run ~proof:(Sat.Proof.create ()) cfg inst in
  (match r.Eda4sat.Pipeline.result with
   | Sat.Solver.Sat m ->
     check_bool "model satisfies the transformed CNF" true
       (Cnf.Formula.eval f m)
   | _ -> Alcotest.fail "buggy miter must be satisfiable");
  (* Same through the direct path. *)
  let f0 = Eda4sat.Instance.direct_formula inst in
  let rd =
    Eda4sat.Pipeline.run ~proof:(Sat.Proof.create ())
      Eda4sat.Pipeline.baseline inst
  in
  match rd.Eda4sat.Pipeline.result with
  | Sat.Solver.Sat m ->
    check_bool "direct model satisfies the input" true
      (Cnf.Formula.eval f0 m)
  | _ -> Alcotest.fail "direct solve must agree"

let test_pipeline_proof_refuted_by_up () =
  (* A contradiction unit propagation refutes on its own: Unsat with
     no conflicts and a sealed, checkable proof. *)
  let f =
    Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| -1; 2 |]; [| -2 |] ]
  in
  let inst = Eda4sat.Instance.of_cnf ~name:"up-unsat" f in
  let proof = Sat.Proof.create () in
  let r = Eda4sat.Pipeline.run ~proof Eda4sat.Pipeline.baseline inst in
  check_bool "unsat" true (result_kind r.Eda4sat.Pipeline.result = `Unsat);
  check "no solver conflicts" 0
    r.Eda4sat.Pipeline.solver_stats.Sat.Solver.conflicts;
  check_bool "proof sealed" true (Sat.Proof.sealed proof);
  check_bool "proof checks" true (Sat.Proof.check f proof)

let suite =
  suite
  @ [
      ("pipeline ?proof: UNSAT proof checks", `Quick,
       test_pipeline_proof_unsat);
      ("pipeline ?proof: SAT models check", `Quick,
       test_pipeline_proof_sat_models);
      ("pipeline ?proof: refuted by UP", `Quick,
       test_pipeline_proof_refuted_by_up);
    ]

(* cnf2aig sizes its tables by the variables that occur, not by the
   header: a billion declared variables over two clauses must cost
   what two clauses cost through the whole transform (about 8.5 MB,
   the same as under a 3-variable header).  Sized by the header, the
   variable map alone would take 8 GB. *)
let test_transform_ignores_header_vars () =
  let f = Cnf.Dimacs.read_string "p cnf 1000000000 2\n1 -2 0\n2 3 0\n" in
  let inst = Eda4sat.Instance.of_cnf ~name:"wide-header" f in
  let before = Gc.allocated_bytes () in
  let f', _ = Eda4sat.Pipeline.transform (Eda4sat.Pipeline.ours ()) inst in
  let bytes = Gc.allocated_bytes () -. before in
  check_bool "allocates by the clauses, not the header" true
    (bytes < 67_108_864.);
  check_bool "transformed CNF is satisfiable" true
    (match fst (Sat.Solver.solve f') with Sat.Solver.Sat _ -> true | _ -> false)

let suite =
  suite
  @ [
      ("transform sizes by the variables used, not the header", `Quick,
       test_transform_ignores_header_vars);
    ]
