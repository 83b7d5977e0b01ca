type config = {
  k : int;
  cut_limit : int;
  area_passes : int;
  cost : Cost.t;
}

let default_config =
  { k = 4; cut_limit = 8; area_passes = 2; cost = Cost.conventional }

let cost_customized_config = { default_config with cost = Cost.branching }

let cut_cost cfg c = cfg.cost (Aig.Cut.cut_tt c)

let run ?(config = default_config) g =
  let cfg = config in
  let n = Aig.Graph.num_nodes g in
  let sets = Aig.Cut.enumerate g ~k:cfg.k ~limit:cfg.cut_limit in
  let refs = Aig.Graph.ref_counts g in
  let reachable = Aig.Graph.reachable g in
  let arrival = Array.make n 0 in
  let flow = Array.make n 0.0 in
  let best : Aig.Cut.cut option array = Array.make n None in
  (* Every pass visits the reachable ANDs, polling for a stop on each. *)
  let iter_reachable f =
    Aig.Graph.iter_ands g (fun id ->
        if reachable.(id) then begin
          Aig.Interrupt.poll ();
          f id
        end)
  in
  (* Each reachable AND's nontrivial cuts, in enumeration order, and
     their costs, computed once. *)
  let cands = Array.make n [||] and costs = Array.make n [||] in
  iter_reachable (fun id ->
      let cs =
        List.filter
          (fun c -> not (Array.exists (Int.equal id) c.Aig.Cut.leaves))
          (Aig.Cut.cuts sets id)
        |> Array.of_list
      in
      cands.(id) <- cs;
      costs.(id) <- Array.map (fun c -> float_of_int (cut_cost cfg c)) cs);
  let cut_arrival c =
    let a = ref 0 in
    Array.iter (fun leaf -> a := max !a arrival.(leaf)) c.Aig.Cut.leaves;
    !a + 1
  in
  let cut_flow c cost =
    let f = ref 0.0 in
    Array.iter (fun leaf -> f := !f +. flow.(leaf)) c.Aig.Cut.leaves;
    cost +. !f
  in
  let select id c a f =
    arrival.(id) <- a;
    flow.(id) <- f /. float_of_int (max 1 refs.(id));
    best.(id) <- Some c
  in
  (* Delay-optimal pass: least arrival, then least flow. *)
  iter_reachable (fun id ->
      let cs = cands.(id) and cost = costs.(id) in
      let bi = ref (-1) and ba = ref max_int and bf = ref infinity in
      Array.iteri
        (fun i c ->
          let a = cut_arrival c and f = cut_flow c cost.(i) in
          if a < !ba || (a = !ba && f < !bf) then begin
            bi := i;
            ba := a;
            bf := f
          end)
        cs;
      assert (!bi >= 0);
      select id cs.(!bi) !ba !bf);
  (* Area-recovery passes under the delay constraint. *)
  let required = Array.make n max_int in
  for _pass = 1 to cfg.area_passes do
    (* Backward required times over the current mapping. *)
    Array.fill required 0 n max_int;
    let target =
      Array.fold_left
        (fun acc l ->
          let id = Aig.Graph.node_of_lit l in
          if Aig.Graph.is_and g id then max acc arrival.(id) else acc)
        0 (Aig.Graph.pos g)
    in
    Array.iter
      (fun l ->
        let id = Aig.Graph.node_of_lit l in
        if Aig.Graph.is_and g id then required.(id) <- target)
      (Aig.Graph.pos g);
    for id = n - 1 downto 0 do
      if reachable.(id) && Aig.Graph.is_and g id && required.(id) < max_int
      then
        match best.(id) with
        | None -> ()
        | Some c ->
          Array.iter
            (fun leaf ->
              if Aig.Graph.is_and g leaf then
                required.(leaf) <- min required.(leaf) (required.(id) - 1))
            c.Aig.Cut.leaves
    done;
    (* Re-select cuts: least flow, then least arrival, among the cuts
       within the required time; failing that, least arrival, then
       least flow. *)
    iter_reachable (fun id ->
        let req = if required.(id) = max_int then target else required.(id) in
        let cs = cands.(id) and cost = costs.(id) in
        let fi = ref (-1) and fa = ref 0 and ff = ref 0.0 in
        let ii = ref (-1) and ia = ref 0 and iff = ref 0.0 in
        Array.iteri
          (fun i c ->
            let a = cut_arrival c and f = cut_flow c cost.(i) in
            if a <= req then begin
              if !fi < 0 || f < !ff || (f = !ff && a < !fa) then begin
                fi := i;
                fa := a;
                ff := f
              end
            end
            else if !ii < 0 || a < !ia || (a = !ia && f < !iff) then begin
              ii := i;
              ia := a;
              iff := f
            end)
          cs;
        if !fi >= 0 then select id cs.(!fi) !fa !ff
        else begin
          assert (!ii >= 0);
          select id cs.(!ii) !ia !iff
        end)
  done;
  (* Derivation: collect the nodes actually used by the mapping. *)
  let used = Array.make n false in
  let rec need id =
    if Aig.Graph.is_and g id && not used.(id) then begin
      used.(id) <- true;
      match best.(id) with
      | None -> assert false
      | Some c -> Array.iter need c.Aig.Cut.leaves
    end
  in
  Array.iter
    (fun l ->
      let id = Aig.Graph.node_of_lit l in
      if id <> 0 then need id)
    (Aig.Graph.pos g);
  let lut_index = Array.make n (-1) in
  let luts = ref [] in
  let count = ref 0 in
  let source_of_node id =
    if Aig.Graph.is_pi g id then Netlist.Input (id - 1)
    else Netlist.Lut_out lut_index.(id)
  in
  Aig.Graph.iter_ands g (fun id ->
      if used.(id) then begin
        match best.(id) with
        | None -> assert false
        | Some c ->
          let fanins = Array.map source_of_node c.Aig.Cut.leaves in
          luts := { Netlist.tt = Aig.Cut.cut_tt c; fanins } :: !luts;
          lut_index.(id) <- !count;
          incr count
      end);
  let outputs =
    Array.map
      (fun l ->
        let id = Aig.Graph.node_of_lit l in
        let compl_ = Aig.Graph.is_compl l in
        if id = 0 then (Netlist.Const compl_, false)
        else (source_of_node id, compl_))
      (Aig.Graph.pos g)
  in
  let nl =
    {
      Netlist.num_inputs = Aig.Graph.num_pis g;
      luts = Array.of_list (List.rev !luts);
      outputs;
    }
  in
  Netlist.validate nl;
  nl

let total_cost cost nl =
  Array.fold_left (fun acc l -> acc + cost l.Netlist.tt) 0 nl.Netlist.luts
