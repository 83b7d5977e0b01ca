(* FRAIG-style functional reduction.  The new graph is built in
   topological order; every created AND node carries a simulation row
   and is encoded once into a persistent incremental SAT session.
   Nodes whose rows match an existing representative (up to complement)
   are candidate merges, decided by an assumption query on the shared
   session (a fresh activation variable implies the two literals
   differ; UNSAT under that assumption proves equivalence).
   Counterexamples from failed proofs are batched and folded back into
   the simulation as an extra word, which rebuilds the signature
   table. *)

type config = {
  words : int;
  seed : int;
  conflict_limit : int;
}

let default_config = { words = 4; seed = 0x5EED; conflict_limit = 1000 }

(* Simulation rows of the new graph in one flat unboxed store: node
   [id] owns [stride] words from byte [8 * id * stride], of which the
   first [width] are in use.  Refinement appends one word to every row
   in place, and doubles [stride] (one copy of the store) only when the
   rows are full.  Rows [0 .. nodes - 1] are set. *)
type rows = {
  mutable store : Bytes.t;
  mutable stride : int;
  mutable width : int;
  mutable nodes : int;
}

let get r id w = Bytes.get_int64_ne r.store (8 * ((id * r.stride) + w))
let set r id w x = Bytes.set_int64_ne r.store (8 * ((id * r.stride) + w)) x
let capacity r = Bytes.length r.store / (8 * r.stride)

let widen r =
  if r.width = r.stride then begin
    let stride = 2 * r.stride in
    let s = Bytes.make (8 * stride * capacity r) '\000' in
    for id = 0 to r.nodes - 1 do
      Bytes.blit r.store (8 * id * r.stride) s (8 * id * stride) (8 * r.width)
    done;
    r.store <- s;
    r.stride <- stride
  end;
  r.width <- r.width + 1

(* A row and its complement share one canonical form, the one that is
   lower as unsigned words: the row itself iff the top bit of its first
   word is clear. *)
let complemented r id = r.width > 0 && Int64.compare (get r id 0) 0L < 0

let canonical_hash r id =
  let c = if complemented r id then -1L else 0L in
  let h = ref 0 in
  for w = 0 to r.width - 1 do
    let x = Int64.logxor (get r id w) c in
    h :=
      (!h * 0x100000001B3)
      lxor Int64.to_int x
      lxor Int64.to_int (Int64.shift_right_logical x 32)
  done;
  !h lxor (!h lsr 31)

let same_canonical r a b =
  let d = if complemented r a <> complemented r b then -1L else 0L in
  let rec go w =
    w >= r.width
    || (Int64.equal (Int64.logxor (get r a w) d) (get r b w) && go (w + 1))
  in
  go 0

(* Representatives by canonical row: an open-addressed table of AND
   ids (0 marks an empty slot), at most half full. *)
type reps = { mutable slots : int array; mutable count : int }

let rec slot_of r t id i =
  let e = t.slots.(i) in
  if e = 0 || same_canonical r e id then i
  else slot_of r t id ((i + 1) land (Array.length t.slots - 1))

let home r t id = canonical_hash r id land (Array.length t.slots - 1)

(* The representative whose row matches [id]'s, or 0. *)
let find_rep r t id = t.slots.(slot_of r t id (home r t id))

(* Map [id]'s canonical row to [id]; with [~keep] an existing entry
   stays. *)
let add r t ~keep id =
  let i = slot_of r t id (home r t id) in
  if t.slots.(i) = 0 then begin
    t.slots.(i) <- id;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) 0;
      Array.iter
        (fun e -> if e <> 0 then t.slots.(slot_of r t e (home r t e)) <- e)
        old
    end
  end
  else if not keep then t.slots.(i) <- id

let run_with_counts ?(config = default_config) g =
  let tried = ref 0 and proven = ref 0 and disproved = ref 0 in
  let rng = Aig.Rng.create config.seed in
  let n_old = Aig.Graph.num_nodes g in
  let result =
    Pass.rebuild g (fun p ->
        let g' = p.Pass.dst and npis = Aig.Graph.num_pis g in
        let new_pis = Array.init npis (Aig.Graph.pi g') in
        (* --- simulation rows for the new graph ---------------------- *)
        (* Each AND of [g] makes at most one AND here, so [n_old] ids
           cover the new graph and nothing below grows with it. *)
        let stride = max 1 config.words in
        let rows =
          {
            store = Bytes.make (8 * stride * n_old) '\000';
            stride;
            width = config.words;
            nodes = npis + 1;
          }
        in
        Array.iter
          (fun l ->
            let id = Aig.Graph.node_of_lit l in
            for w = 0 to rows.width - 1 do
              set rows id w (Aig.Rng.next64 rng)
            done)
          new_pis;
        (* --- one shared incremental SAT session --------------------- *)
        (* One variable per node, and one activation variable per
           candidate tried: a quarter of the ANDs is room for most
           sweeps. *)
        let session =
          Sat.Solver.Incremental.create
            ~capacity:(n_old + ((n_old - npis) / 4))
            ()
        in
        (* Each query branches only on its own cone (see
           [prove_equal]), so every variable starts as a non-decision
           one. *)
        let new_var () =
          let v = Sat.Solver.Incremental.new_var session in
          Sat.Solver.Incremental.set_decision session v false;
          v
        in
        (* node id -> CNF variable (0 = not encoded). *)
        let cnf_var = Array.make n_old 0 in
        Array.iter
          (fun l -> cnf_var.(Aig.Graph.node_of_lit l) <- new_var ())
          new_pis;
        let dimacs_of l =
          let v = cnf_var.(Aig.Graph.node_of_lit l) in
          assert (v > 0);
          if Aig.Graph.is_compl l then -v else v
        in
        let and_tracked a b =
          let l = Aig.Graph.and_ g' a b in
          let id = Aig.Graph.node_of_lit l in
          if Aig.Graph.is_and g' id && id >= rows.nodes then begin
            let f0 = Aig.Graph.fanin0 g' id and f1 = Aig.Graph.fanin1 g' id in
            let n0 = Aig.Graph.node_of_lit f0
            and n1 = Aig.Graph.node_of_lit f1 in
            let c0 = if Aig.Graph.is_compl f0 then -1L else 0L
            and c1 = if Aig.Graph.is_compl f1 then -1L else 0L in
            for w = 0 to rows.width - 1 do
              set rows id w
                (Int64.logand
                   (Int64.logxor (get rows n0 w) c0)
                   (Int64.logxor (get rows n1 w) c1))
            done;
            rows.nodes <- id + 1;
            (* Encode the node once into the shared session. *)
            let o = new_var () in
            cnf_var.(id) <- o;
            let da = dimacs_of f0 and db = dimacs_of f1 in
            Sat.Solver.Incremental.add_clause session [| -o; da |];
            Sat.Solver.Incremental.add_clause session [| -o; db |];
            Sat.Solver.Incremental.add_clause session [| o; -da; -db |]
          end;
          l
        in
        (* --- representative table ----------------------------------- *)
        let reps = { slots = Array.make 1024 0; count = 0 } in
        (* Every node ever made a representative, oldest first. *)
        let rep_nodes = ref (Array.make 1024 0) and nreps = ref 0 in
        let is_rep = Bytes.make n_old '\000' in
        let add_rep id =
          add rows reps ~keep:false id;
          if !nreps = Array.length !rep_nodes then begin
            let d = Array.make (2 * !nreps) 0 in
            Array.blit !rep_nodes 0 d 0 !nreps;
            rep_nodes := d
          end;
          !rep_nodes.(!nreps) <- id;
          incr nreps;
          Bytes.set is_rep id '\001'
        in
        let find_candidate id =
          match find_rep rows reps id with
          | 0 -> None
          | rep when rep = id -> None
          | rep ->
            (* id's function = rep's function xor (my_compl xor rep_compl). *)
            Some
              (Aig.Graph.lit_of_node rep
                 (complemented rows id <> complemented rows rep))
        in
        (* --- counterexample refinement ------------------------------ *)
        (* Counterexamples are packed as they arrive, one bit per
           counterexample in each PI's word: the [k]-th of a batch of
           64 sets bit [63 - k], so the newest is bit 0. *)
        let cex_words = Array.make npis 0L and ncex = ref 0 in
        let refine () =
          ncex := 0;
          widen rows;
          let w = rows.width - 1 in
          set rows 0 w 0L;
          Array.iteri
            (fun i l ->
              set rows (Aig.Graph.node_of_lit l) w cex_words.(i);
              cex_words.(i) <- 0L)
            new_pis;
          Aig.Graph.iter_ands g' (fun id ->
              let v l =
                let x = get rows (Aig.Graph.node_of_lit l) w in
                if Aig.Graph.is_compl l then Int64.lognot x else x
              in
              set rows id w
                (Int64.logand
                   (v (Aig.Graph.fanin0 g' id))
                   (v (Aig.Graph.fanin1 g' id))));
          (* The oldest representative of each refined row wins. *)
          Array.fill reps.slots 0 (Array.length reps.slots) 0;
          reps.count <- 0;
          for i = 0 to !nreps - 1 do
            add rows reps ~keep:true !rep_nodes.(i)
          done
        in
        (* --- the cone of a query ------------------------------------ *)
        (* [in_cone.(id) = !stamp] marks the nodes of the current
           query's transitive fan-in; [cone] lists their variables. *)
        let in_cone = Array.make n_old 0 and stamp = ref 0 in
        let cone = Array.make n_old 0 and cone_size = ref 0 in
        let stack = Array.make n_old 0 in
        let mark_cone roots =
          incr stamp;
          cone_size := 0;
          let top = ref 0 in
          let push id =
            if in_cone.(id) <> !stamp then begin
              in_cone.(id) <- !stamp;
              cone.(!cone_size) <- cnf_var.(id);
              incr cone_size;
              stack.(!top) <- id;
              incr top
            end
          in
          List.iter push roots;
          while !top > 0 do
            decr top;
            let id = stack.(!top) in
            if Aig.Graph.is_and g' id then begin
              push (Aig.Graph.node_of_lit (Aig.Graph.fanin0 g' id));
              push (Aig.Graph.node_of_lit (Aig.Graph.fanin1 g' id))
            end
          done
        in
        (* In reverse discovery order: the nodes found last, nearest
           the inputs, enter the heap first. *)
        let set_cone_decision b =
          for i = !cone_size - 1 downto 0 do
            Sat.Solver.Incremental.set_decision session cone.(i) b
          done
        in
        (* --- SAT equivalence proof via an assumption query ----------- *)
        (* The query branches only on the variables of the two nodes'
           fan-in cones.  With Tseitin definitions, a conflict-free
           assignment of a cone extends to the whole graph, and the
           earlier activation variables, which occur only negatively,
           extend by false; so a [`Sat] answer is a real counterexample
           on the cone's PIs, whatever the other PIs are.  Propagation
           never assigns a PI outside the cone (either value extends),
           so its saved phase, which {!Sat.Solver.Incremental.
           model_value} reads, is still its value in the last
           counterexample that assigned it: the counterexample carries
           those values forward. *)
        let prove_equal la lb =
          let da = dimacs_of la and db = dimacs_of lb in
          (* Activation variable: x -> (la <> lb). *)
          let x = new_var () in
          Sat.Solver.Incremental.add_clause session [| -x; da; db |];
          Sat.Solver.Incremental.add_clause session [| -x; -da; -db |];
          let limits =
            {
              Sat.Solver.no_limits with
              Sat.Solver.max_conflicts = Some config.conflict_limit;
            }
          in
          mark_cone [ Aig.Graph.node_of_lit la; Aig.Graph.node_of_lit lb ];
          set_cone_decision true;
          let answer =
            fst
              (Sat.Solver.Incremental.check ~limits ~assumptions:[| x |]
                 session)
          in
          set_cone_decision false;
          match answer with
          | `Unsat ->
            (* Deactivate permanently so the clauses become vacuous. *)
            Sat.Solver.Incremental.add_clause session [| -x |];
            `Equal
          | `Unknown -> `Unknown
          | `Sat ->
            let bit = Int64.shift_left 1L (63 - !ncex) in
            Array.iteri
              (fun i l ->
                let v = cnf_var.(Aig.Graph.node_of_lit l) in
                if Sat.Solver.Incremental.model_value session v then
                  cex_words.(i) <- Int64.logor cex_words.(i) bit)
              new_pis;
            incr ncex;
            `Different
        in
        (* --- main sweep ---------------------------------------------- *)
        fun id ->
          let nl =
            and_tracked
              (Pass.lit p (Aig.Graph.fanin0 g id))
              (Pass.lit p (Aig.Graph.fanin1 g id))
          in
          let nid = Aig.Graph.node_of_lit nl in
          if not (Aig.Graph.is_and g' nid) then nl
          else if Bytes.get is_rep nid = '\001' then nl
          else begin
            match find_candidate nid with
            | None ->
              add_rep nid;
              nl
            | Some cand_lit ->
              incr tried;
              let target = Aig.Graph.lit_of_node nid false in
              (match prove_equal target cand_lit with
               | `Equal ->
                 incr proven;
                 Aig.Graph.lit_not_cond cand_lit (Aig.Graph.is_compl nl)
               | `Different ->
                 incr disproved;
                 if !ncex = 64 then refine ();
                 add_rep nid;
                 nl
               | `Unknown ->
                 add_rep nid;
                 nl)
          end)
  in
  (result, !tried, !proven, !disproved)

let run ?config g =
  let g', _, _, _ = run_with_counts ?config g in
  g'
