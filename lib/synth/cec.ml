type verdict = Equivalent | Different of bool array | Unknown

type config = {
  sim_words : int;
  seed : int;
  use_fraig : bool;
  solver_limits : Sat.Solver.limits;
}

let default_config =
  {
    sim_words = 16;
    seed = 0xCEC;
    use_fraig = true;
    solver_limits =
      { Sat.Solver.no_limits with Sat.Solver.max_conflicts = Some 200_000 };
  }

let miter a b =
  if
    Aig.Graph.num_pis a <> Aig.Graph.num_pis b
    || Aig.Graph.num_pos a <> Aig.Graph.num_pos b
  then invalid_arg "Cec.miter: interface mismatch";
  let g = Aig.Graph.create ~num_pis:(Aig.Graph.num_pis a) in
  let pis = Array.init (Aig.Graph.num_pis a) (Aig.Graph.pi g) in
  let copy src =
    let map = Array.make (Aig.Graph.num_nodes src) Aig.Graph.const_false in
    Array.iteri (fun i l -> map.(i + 1) <- l) pis;
    let ml l =
      Aig.Graph.lit_not_cond
        map.(Aig.Graph.node_of_lit l)
        (Aig.Graph.is_compl l)
    in
    Aig.Graph.iter_ands src (fun id ->
        map.(id) <-
          Aig.Graph.and_ g
            (ml (Aig.Graph.fanin0 src id))
            (ml (Aig.Graph.fanin1 src id)));
    Array.map ml (Aig.Graph.pos src)
  in
  let oa = copy a and ob = copy b in
  let diffs =
    Array.to_list (Array.mapi (fun i la -> Aig.Graph.xor_ g la ob.(i)) oa)
  in
  Aig.Graph.add_po g (Aig.Graph.or_list g diffs);
  g

let find_cex_by_simulation cfg m =
  let inputs = Aig.Sim.random_inputs m ~words:cfg.sim_words ~seed:cfg.seed in
  let sigs = Aig.Sim.run m ~inputs in
  let row = (Aig.Sim.output_rows m sigs).(0) in
  let npis = Aig.Graph.num_pis m in
  let found = ref None in
  Array.iteri
    (fun w word ->
      if !found = None && word <> 0L then begin
        (* Find a set bit and read the corresponding input column. *)
        let rec bit i =
          if Int64.logand (Int64.shift_right_logical word i) 1L = 1L then i
          else bit (i + 1)
        in
        let b = bit 0 in
        found :=
          Some
            (Array.init npis (fun p ->
                 Int64.logand (Int64.shift_right_logical inputs.(p).(w) b) 1L
                 = 1L))
      end)
    row;
  !found

let check ?(config = default_config) a b =
  let m = miter a b in
  match find_cex_by_simulation config m with
  | Some cex -> Different cex
  | None ->
    let m = if config.use_fraig then Resub.run m else m in
    if Aig.Graph.po m 0 = Aig.Graph.const_false then Equivalent
    else begin
      let enc = Cnf.Tseitin.encode ~assert_outputs:true m in
      match
        Sat.Solver.solve ~limits:config.solver_limits enc.Cnf.Tseitin.formula
      with
      | Sat.Solver.Unsat, _ -> Equivalent
      | Sat.Solver.Sat model, _ ->
        Different (Array.init (Aig.Graph.num_pis m) (fun i -> model.(i)))
      | Sat.Solver.Unknown, _ -> Unknown
    end

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Different _ -> "different"
  | Unknown -> "unknown"
