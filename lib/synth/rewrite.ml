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
  Pass.rebuild g
    ~select:(Array.get (Aig.Graph.reachable g))
    (fun p id ->
      (* Candidate cuts: nontrivial, not rooted at id itself. *)
      let candidates =
        List.filter
          (fun c ->
            Array.length c.Aig.Cut.leaves >= 2
            && not (Array.exists (Int.equal id) c.Aig.Cut.leaves))
          (Aig.Cut.cuts sets id)
      in
      (* A candidate built from cut [c] replaces the whole MFFC above the
         cut; its budget is that cone size. *)
      let best = ref None and best_gain = ref 0 in
      List.iter
        (fun c ->
          let saved =
            if use_mffc then Mffc.size_above_cut g refs id c.Aig.Cut.leaves
            else 1
          in
          let leaves = Array.map (fun n -> p.Pass.map.(n)) c.Aig.Cut.leaves in
          let tt = Aig.Cut.cut_tt c in
          let m = Aig.Graph.mark p.Pass.dst in
          let _lit = Aig.Factor.tt_to_aig_cached tapes p.Pass.dst ~leaves tt in
          let added = Aig.Graph.nodes_since p.Pass.dst m in
          Aig.Graph.rollback p.Pass.dst m;
          let gain = saved - added in
          if gain > !best_gain then begin
            best_gain := gain;
            best := Some c
          end)
        candidates;
      match !best with
      | None -> Pass.copy p id
      | Some c ->
        let leaves = Array.map (fun n -> p.Pass.map.(n)) c.Aig.Cut.leaves in
        Aig.Factor.tt_to_aig_cached tapes p.Pass.dst ~leaves (Aig.Cut.cut_tt c))
