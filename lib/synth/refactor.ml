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
  Pass.rebuild g
    ~select:(Array.get (Aig.Graph.reachable g))
    (fun p id ->
      let leaves = grow_cut g ~max_leaves ~max_cone id in
      if Array.length leaves < 3 || Array.mem id leaves then Pass.copy p id
      else begin
        let saved = Mffc.size_above_cut g refs id leaves in
        if saved < 2 then Pass.copy p id
        else begin
          let tt = cone_tt g id leaves in
          let mapped = Array.map (fun n -> p.Pass.map.(n)) leaves in
          let m = Aig.Graph.mark p.Pass.dst in
          let build () =
            Aig.Factor.tt_to_aig_cached tapes p.Pass.dst ~leaves:mapped tt
          in
          let _cand = build () in
          let added = Aig.Graph.nodes_since p.Pass.dst m in
          Aig.Graph.rollback p.Pass.dst m;
          if added < saved then build () else Pass.copy p id
        end
      end)
