(* Rebuild-style rewriting.  Every reachable old node is mapped to a new
   literal; an AND node's mapping is chosen among its cut
   implementations by comparing the nodes a candidate would materialize
   (structural hashing makes reuse free — tentative builds are rolled
   back) against the size of the node's maximum fanout-free cone above
   the cut: the old nodes that die when every consumer switches to the
   candidate.  Implementations that end up unreferenced are swept at
   the end, so the MFFC credit is realized physically. *)

let run ?(k = 4) ?(cut_limit = 8) ?(use_mffc = true) g =
  let sets = Aig.Cut.enumerate g ~k ~limit:cut_limit in
  let tapes = Aig.Factor.create_cache () in
  let refs = Aig.Graph.ref_counts g in
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
              (* Candidate cuts: nontrivial, not rooted at id itself. *)
              let candidates =
                List.filter
                  (fun c ->
                    Array.length c.Aig.Cut.leaves >= 2
                    && not (Array.mem id c.Aig.Cut.leaves))
                  (Aig.Cut.cuts sets id)
              in
              (* A candidate built from cut [c] replaces the whole MFFC
                 above the cut; its budget is that cone size. *)
              let best = ref None and best_gain = ref 0 in
              List.iter
                (fun c ->
                  let saved =
                    if use_mffc then Mffc.size_above_cut g refs id c.Aig.Cut.leaves
                    else 1
                  in
                  let leaves = Array.map (fun n -> map.(n)) c.Aig.Cut.leaves in
                  let tt = Aig.Cut.cut_tt c in
                  let m = Aig.Graph.mark g' in
                  let _lit = Aig.Factor.tt_to_aig_cached tapes g' ~leaves tt in
                  let added = Aig.Graph.nodes_since g' m in
                  Aig.Graph.rollback g' m;
                  let gain = saved - added in
                  if gain > !best_gain then begin
                    best_gain := gain;
                    best := Some c
                  end)
                candidates;
              let lit =
                match !best with
                | None -> default ()
                | Some c ->
                  let leaves = Array.map (fun n -> map.(n)) c.Aig.Cut.leaves in
                  Aig.Factor.tt_to_aig_cached tapes g' ~leaves
                    (Aig.Cut.cut_tt c)
              in
              map.(id) <- lit
            end);
        Array.map map_lit (Aig.Graph.pos g))
  in
  Aig.Graph.cleanup result
