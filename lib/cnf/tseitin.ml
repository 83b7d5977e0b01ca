type encoding = {
  formula : Formula.t;
  node_var : int array;
  output_lits : int array;
}

let encode ?(assert_outputs = true) ?(plaisted_greenbaum = false) g =
  let n = Aig.Graph.num_nodes g in
  let npis = Aig.Graph.num_pis g in
  (* Only encode nodes in the transitive fanin of an output. *)
  let reachable = Aig.Graph.reachable g in
  let node_var = Array.make n 0 in
  (* PIs always get variables 1..npis, reachable or not, so models map
     back to input assignments uniformly. *)
  for i = 1 to npis do
    node_var.(i) <- i
  done;
  let next = ref (npis + 1) in
  Aig.Graph.iter_ands g (fun id ->
      if reachable.(id) then begin
        node_var.(id) <- !next;
        incr next
      end);
  let num_vars = !next - 1 in
  let lit_of l =
    let v = node_var.(Aig.Graph.node_of_lit l) in
    assert (v > 0);
    if Aig.Graph.is_compl l then -v else v
  in
  (* Polarity marking for Plaisted-Greenbaum: 1 = positive use,
     2 = negative use, 3 = both.  Outputs are positive contexts. *)
  let polarity = Array.make n 0 in
  if plaisted_greenbaum then begin
    let mark id p = polarity.(id) <- polarity.(id) lor p in
    Array.iter
      (fun l ->
        let id = Aig.Graph.node_of_lit l in
        if id <> 0 then mark id (if Aig.Graph.is_compl l then 2 else 1))
      (Aig.Graph.pos g);
    (* Descending ids = reverse topological order. *)
    for id = n - 1 downto 1 do
      if reachable.(id) && Aig.Graph.is_and g id && polarity.(id) <> 0 then begin
        let push l =
          let child = Aig.Graph.node_of_lit l in
          if child <> 0 then begin
            let p = polarity.(id) in
            let p = if Aig.Graph.is_compl l then
                ((p land 1) * 2) lor ((p land 2) / 2)
              else p
            in
            mark child p
          end
        in
        push (Aig.Graph.fanin0 g id);
        push (Aig.Graph.fanin1 g id)
      end
    done
  end;
  let clauses = ref [] in
  Aig.Graph.iter_ands g (fun id ->
      if reachable.(id) then begin
        let o = node_var.(id) in
        let a = lit_of (Aig.Graph.fanin0 g id)
        and b = lit_of (Aig.Graph.fanin1 g id) in
        let p = if plaisted_greenbaum then polarity.(id) else 3 in
        if p land 1 <> 0 then
          clauses := [| -o; a |] :: [| -o; b |] :: !clauses;
        if p land 2 <> 0 then clauses := [| o; -a; -b |] :: !clauses
      end);
  let output_lits =
    Array.map
      (fun l ->
        if l = Aig.Graph.const_false then 0
        else if l = Aig.Graph.const_true then 0
        else lit_of l)
      (Aig.Graph.pos g)
  in
  if assert_outputs then
    Array.iter
      (fun l ->
        let lit =
          if l = Aig.Graph.const_true then None
          else if l = Aig.Graph.const_false then Some [||]
          else Some [| lit_of l |]
        in
        match lit with
        | Some c -> clauses := c :: !clauses
        | None -> ())
      (Aig.Graph.pos g);
  {
    formula = Formula.create ~num_vars (List.rev !clauses);
    node_var;
    output_lits;
  }
