(* Reconvergence-driven cut growth + cone collapse + refactoring.

   For each node the cut starts at its fanins and repeatedly expands
   the leaf whose replacement by its own fanins increases the leaf
   count the least (the classic reconvergence heuristic: a leaf both of
   whose fanins are already leaves is free).  The cone above the final
   cut is evaluated into a truth table and rebuilt from a factored
   cover; the replacement is kept when it adds fewer nodes than the
   MFFC it frees. *)

let grow_cut g ~max_leaves ~max_cone id =
  let leaves = Hashtbl.create 16 in
  let cone = Hashtbl.create 32 in
  Hashtbl.replace cone id ();
  let add_leaf n = Hashtbl.replace leaves n () in
  add_leaf (Aig.Graph.node_of_lit (Aig.Graph.fanin0 g id));
  add_leaf (Aig.Graph.node_of_lit (Aig.Graph.fanin1 g id));
  let expansion_cost n =
    (* New leaves created if leaf n is replaced by its fanins. *)
    if not (Aig.Graph.is_and g n) then None
    else begin
      let f0 = Aig.Graph.node_of_lit (Aig.Graph.fanin0 g n)
      and f1 = Aig.Graph.node_of_lit (Aig.Graph.fanin1 g n) in
      let cost =
        (if Hashtbl.mem leaves f0 then 0 else 1)
        + (if Hashtbl.mem leaves f1 then 0 else 1)
        - 1
      in
      Some (cost, f0, f1)
    end
  in
  let continue = ref true in
  while !continue && Hashtbl.length cone < max_cone do
    (* Pick the cheapest expandable leaf. *)
    let best = ref None in
    Hashtbl.iter
      (fun n () ->
        match expansion_cost n with
        | Some (c, f0, f1) -> (
          match !best with
          | Some (bc, _, _, _) when bc <= c -> ()
          | _ -> best := Some (c, n, f0, f1))
        | None -> ())
      leaves;
    match !best with
    | Some (c, n, f0, f1) when Hashtbl.length leaves - 1 + c + 1 <= max_leaves
      ->
      (* leaves - n + (new leaves); c = new - 1. *)
      Hashtbl.remove leaves n;
      Hashtbl.replace cone n ();
      Hashtbl.replace leaves f0 ();
      Hashtbl.replace leaves f1 ()
    | Some _ | None -> continue := false
  done;
  Hashtbl.fold (fun n () acc -> n :: acc) leaves []
  |> List.sort compare |> Array.of_list

(* Truth table of [id] as a function of [leaves] (ascending ids). *)
let cone_tt g id leaves =
  let n = Array.length leaves in
  let memo = Hashtbl.create 64 in
  Array.iteri (fun i leaf -> Hashtbl.replace memo leaf (Aig.Tt.var n i)) leaves;
  let rec eval nid =
    match Hashtbl.find_opt memo nid with
    | Some t -> t
    | None ->
      let value l =
        let t = eval (Aig.Graph.node_of_lit l) in
        if Aig.Graph.is_compl l then Aig.Tt.not_ t else t
      in
      let t =
        Aig.Tt.and_ (value (Aig.Graph.fanin0 g nid))
          (value (Aig.Graph.fanin1 g nid))
      in
      Hashtbl.replace memo nid t;
      t
  in
  eval id

let run ?(max_leaves = 10) ?(max_cone = 60) g =
  if max_leaves > 16 then invalid_arg "Refactor.run: max_leaves above 16";
  let refs = Aig.Graph.ref_counts g in
  let tapes = Aig.Factor.create_cache () in
  let reachable = Array.make (Aig.Graph.num_nodes g) false in
  let rec visit id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      if Aig.Graph.is_and g id then begin
        visit (Aig.Graph.node_of_lit (Aig.Graph.fanin0 g id));
        visit (Aig.Graph.node_of_lit (Aig.Graph.fanin1 g id))
      end
    end
  in
  Array.iter
    (fun l ->
      let id = Aig.Graph.node_of_lit l in
      if id <> 0 then visit id)
    (Aig.Graph.pos g);
  let result =
    Aig.Graph.compose g (fun g' new_pis ->
        let map = Array.make (Aig.Graph.num_nodes g) Aig.Graph.const_false in
        for i = 0 to Aig.Graph.num_pis g - 1 do
          map.(i + 1) <- new_pis.(i)
        done;
        let map_lit l =
          Aig.Graph.lit_not_cond
            map.(Aig.Graph.node_of_lit l)
            (Aig.Graph.is_compl l)
        in
        Aig.Graph.iter_ands g (fun id ->
            if reachable.(id) then begin
              let default () =
                Aig.Graph.and_ g'
                  (map_lit (Aig.Graph.fanin0 g id))
                  (map_lit (Aig.Graph.fanin1 g id))
              in
              let leaves = grow_cut g ~max_leaves ~max_cone id in
              let lit =
                if Array.length leaves < 3 || Array.mem id leaves then
                  default ()
                else begin
                  let saved = Mffc.size_above_cut g refs id leaves in
                  if saved < 2 then default ()
                  else begin
                    let tt = cone_tt g id leaves in
                    let mapped = Array.map (fun n -> map.(n)) leaves in
                    let m = Aig.Graph.mark g' in
                    let build () =
                      Aig.Factor.tt_to_aig_cached tapes g' ~leaves:mapped tt
                    in
                    let _cand = build () in
                    let added = Aig.Graph.nodes_since g' m in
                    Aig.Graph.rollback g' m;
                    if added < saved then build ()
                    else default ()
                  end
                end
              in
              map.(id) <- lit
            end);
        Array.map map_lit (Aig.Graph.pos g))
  in
  Aig.Graph.cleanup result
