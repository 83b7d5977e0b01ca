(* Train the logic-synthesis RL agent (§3.2) on generated LEC miters
   and report the learning curve, then exercise the trained agent
   inside the full pipeline.

     dune exec examples/train_agent.exe -- [--episodes N] [--out FILE] *)

let arg_int flag default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = flag then int_of_string Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let arg_str flag default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  let episodes = arg_int "--episodes" 30 in
  let out = arg_str "--out" None in
  Printf.printf "Generating training miters...\n%!";
  let instances = Workloads.Suites.training_set ~scale:0.4 ~count:12 () in
  Printf.printf "Training DQN for %d episodes (T=10, gamma=0.98, batch=32)...\n%!"
    episodes;
  let env_config =
    {
      Eda4sat.Env.default_config with
      Eda4sat.Env.reward_limits =
        {
          Sat.Solver.no_limits with
          Sat.Solver.max_decisions = Some 50_000;
          max_seconds = Some 10.0;
        };
    }
  in
  let agent, history =
    Eda4sat.Trainer.train ~env_config instances ~episodes
      ~on_episode:(fun p ->
        if p.Eda4sat.Trainer.episode mod 5 = 0 then
          Printf.printf "  episode %3d: reward %+.3f, loss %.5f\n%!"
            p.Eda4sat.Trainer.episode p.Eda4sat.Trainer.reward
            p.Eda4sat.Trainer.loss)
  in
  Printf.printf "average reward, last 10 episodes: %+.3f\n"
    (Eda4sat.Trainer.average_reward history 10);
  (match out with
   | Some path ->
     let oc = open_out path in
     output_string oc (Rl.Dqn.save_string agent);
     close_out oc;
     Printf.printf "agent weights saved to %s\n" path
   | None -> ());
  (* Use the trained agent on a fresh, larger miter. *)
  print_endline "Evaluating the trained agent on an unseen miter...";
  let g = Workloads.Lec.generate ~seed:31337 ~num_pis:22 ~num_ands:700 () in
  let inst = Eda4sat.Instance.of_circuit ~name:"eval-miter" g in
  let rb = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
  let ro = Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours ~agent ()) inst in
  Format.printf "baseline %a@." Eda4sat.Pipeline.pp_report rb;
  Format.printf "with RL  %a@." Eda4sat.Pipeline.pp_report ro;
  Printf.printf "agent recipe: %s\n"
    (Synth.Recipe.to_string ro.Eda4sat.Pipeline.recipe_used);
  Printf.printf "reduction: %.1f%%\n"
    (Eda4sat.Pipeline.reduction ~baseline:rb ro)
