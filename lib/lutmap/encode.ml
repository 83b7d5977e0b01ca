type encoding = {
  formula : Cnf.Formula.t;
  input_var : int array;
  lut_var : int array;
}

let encode ?(assert_outputs = true) nl =
  let ni = nl.Netlist.num_inputs in
  let nluts = Array.length nl.Netlist.luts in
  let input_var = Array.init ni (fun i -> i + 1) in
  let lut_var = Array.init nluts (fun j -> ni + j + 1) in
  (* Constants get one shared variable fixed by a unit clause when
     actually referenced. *)
  let const_var = ref 0 in
  let next_var = ref (ni + nluts) in
  let clauses = ref [] in
  let var_of_source = function
    | Netlist.Input i -> input_var.(i)
    | Netlist.Lut_out j -> lut_var.(j)
    | Netlist.Const b ->
      if !const_var = 0 then begin
        incr next_var;
        const_var := !next_var;
        clauses := [| !const_var |] :: !clauses
        (* const_var is fixed true; Const false is its negation. *)
      end;
      if b then !const_var else - !const_var
  in
  Array.iteri
    (fun j lut ->
      Aig.Interrupt.poll ();
      let o = lut_var.(j) in
      let fanin_lit (v, positive) =
        let base = var_of_source lut.Netlist.fanins.(v) in
        if positive then base else -base
      in
      let cube_clause extra c =
        let lits =
          List.map (fun l -> -fanin_lit l) (Aig.Cube.literals c) @ [ extra ]
        in
        Array.of_list lits
      in
      List.iter
        (fun c -> clauses := cube_clause o c :: !clauses)
        (Aig.Isop.compute lut.Netlist.tt);
      List.iter
        (fun c -> clauses := cube_clause (-o) c :: !clauses)
        (Aig.Isop.compute (Aig.Tt.not_ lut.Netlist.tt)))
    nl.Netlist.luts;
  if assert_outputs then
    Array.iter
      (fun (src, compl_) ->
        match src with
        | Netlist.Const b ->
          if b = compl_ then clauses := [||] :: !clauses
        | Netlist.Input _ | Netlist.Lut_out _ ->
          let v = var_of_source src in
          clauses := [| (if compl_ then -v else v) |] :: !clauses)
      nl.Netlist.outputs;
  {
    formula = Cnf.Formula.create ~num_vars:!next_var (List.rev !clauses);
    input_var;
    lut_var;
  }
