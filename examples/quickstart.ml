(* Quickstart: build a small circuit, run the EDA-driven preprocessing
   pipeline on it, and compare against solving directly.

     dune exec examples/quickstart.exe *)

let () =
  (* A 16-bit odd-parity checker equivalence problem: parity computed
     two ways, mitered.  CDCL dislikes XOR chains; the preprocessor
     collapses them. *)
  let n = 16 in
  let g = Aig.Graph.create ~num_pis:n in
  let pis = List.init n (Aig.Graph.pi g) in
  (* Chain parity. *)
  let chain =
    List.fold_left (fun acc l -> Aig.Graph.xor_ g acc l)
      Aig.Graph.const_false pis
  in
  (* Tree parity. *)
  let rec tree = function
    | [] -> Aig.Graph.const_false
    | [ l ] -> l
    | ls ->
      let rec split acc = function
        | [] -> (List.rev acc, [])
        | x :: rest when List.length acc < List.length ls / 2 ->
          split (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let left, right = split [] ls in
      Aig.Graph.xor_ g (tree left) (tree right)
  in
  Aig.Graph.add_po g (Aig.Graph.xor_ g chain (tree pis));
  Printf.printf "Miter: %d PIs, %d AND nodes, depth %d\n" n
    (Aig.Graph.num_ands g) (Aig.Graph.depth g);

  let inst = Eda4sat.Instance.of_circuit ~name:"parity-lec" g in

  (* 1. Solve directly (the baseline). *)
  let direct = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
  Format.printf "baseline: %a@." Eda4sat.Pipeline.pp_report direct;

  (* 2. Preprocess with the full framework, then solve. *)
  let ours = Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours ()) inst in
  Format.printf "ours:     %a@." Eda4sat.Pipeline.pp_report ours;
  Printf.printf "recipe used: %s\n"
    (Synth.Recipe.to_string ours.Eda4sat.Pipeline.recipe_used);
  Printf.printf "decisions: %d (baseline) vs %d (preprocessed)\n"
    direct.Eda4sat.Pipeline.solver_stats.Sat.Solver.decisions
    ours.Eda4sat.Pipeline.solver_stats.Sat.Solver.decisions;

  (* On a toy the preprocessing overhead can exceed the solve time; the
     runtime win appears on instances the solver actually struggles
     with.  Part 2: a realistic LEC miter. *)
  print_endline "\n-- part 2: a realistic equivalence-checking miter --";
  let miter =
    Workloads.Lec.generate ~seed:4242 ~num_pis:24 ~num_ands:800 ()
  in
  Printf.printf "Miter: %d PIs, %d AND nodes, depth %d\n%!"
    (Aig.Graph.num_pis miter) (Aig.Graph.num_ands miter)
    (Aig.Graph.depth miter);
  let inst = Eda4sat.Instance.of_circuit ~name:"lec-miter" miter in
  let direct = Eda4sat.Pipeline.run Eda4sat.Pipeline.baseline inst in
  Format.printf "baseline: %a@." Eda4sat.Pipeline.pp_report direct;
  let ours = Eda4sat.Pipeline.run (Eda4sat.Pipeline.ours ()) inst in
  Format.printf "ours:     %a@." Eda4sat.Pipeline.pp_report ours;
  Printf.printf "overall runtime reduction: %.1f%%\n"
    (Eda4sat.Pipeline.reduction ~baseline:direct ours)
