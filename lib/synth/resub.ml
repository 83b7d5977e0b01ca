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

let last_stats = ref (0, 0, 0)
let stats_last_run () = !last_stats

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

let reserve r id =
  let cap = capacity r in
  if id >= cap then begin
    let s = Bytes.make (8 * r.stride * max (id + 1) (2 * cap)) '\000' in
    Bytes.blit r.store 0 s 0 (Bytes.length r.store);
    r.store <- s
  end

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

let run ?(config = default_config) g =
  let tried = ref 0 and proven = ref 0 and disproved = ref 0 in
  let rng = Aig.Rng.create config.seed in
  let n_old = Aig.Graph.num_nodes g in
  let result =
    Aig.Graph.compose g (fun g' new_pis ->
        let npis = Array.length new_pis in
        (* --- simulation rows for the new graph ---------------------- *)
        let stride = max 1 config.words in
        let rows =
          {
            store = Bytes.make (8 * stride * max 16 (2 * npis)) '\000';
            stride;
            width = config.words;
            nodes = npis + 1;
          }
        in
        reserve rows npis;
        Array.iter
          (fun l ->
            let id = Aig.Graph.node_of_lit l in
            for w = 0 to rows.width - 1 do
              set rows id w (Aig.Rng.next64 rng)
            done)
          new_pis;
        (* --- one shared incremental SAT session --------------------- *)
        let session = Sat.Solver.Incremental.create () in
        (* node id -> CNF variable (0 = not encoded). *)
        let cnf_var = ref (Array.make (max 16 (2 * npis)) 0) in
        let set_var id v =
          if id >= Array.length !cnf_var then begin
            let d =
              Array.make (max (2 * Array.length !cnf_var) (id + 1)) 0
            in
            Array.blit !cnf_var 0 d 0 (Array.length !cnf_var);
            cnf_var := d
          end;
          !cnf_var.(id) <- v
        in
        Array.iter
          (fun l ->
            set_var (Aig.Graph.node_of_lit l)
              (Sat.Solver.Incremental.new_var session))
          new_pis;
        let dimacs_of l =
          let v = !cnf_var.(Aig.Graph.node_of_lit l) in
          assert (v > 0);
          if Aig.Graph.is_compl l then -v else v
        in
        let and_tracked a b =
          let l = Aig.Graph.and_ g' a b in
          let id = Aig.Graph.node_of_lit l in
          if Aig.Graph.is_and g' id && id >= rows.nodes then begin
            reserve rows id;
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
            let o = Sat.Solver.Incremental.new_var session in
            set_var id o;
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
        let is_rep = ref (Bytes.make 1024 '\000') in
        let add_rep id =
          add rows reps ~keep:false id;
          if !nreps = Array.length !rep_nodes then begin
            let d = Array.make (2 * !nreps) 0 in
            Array.blit !rep_nodes 0 d 0 !nreps;
            rep_nodes := d
          end;
          !rep_nodes.(!nreps) <- id;
          incr nreps;
          if id >= Bytes.length !is_rep then begin
            let size = max (id + 1) (2 * Bytes.length !is_rep) in
            let d = Bytes.make size '\000' in
            Bytes.blit !is_rep 0 d 0 (Bytes.length !is_rep);
            is_rep := d
          end;
          Bytes.set !is_rep id '\001'
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
        let cex_buffer = ref [] in
        let refine () =
          let cexes = Array.of_list !cex_buffer in
          cex_buffer := [];
          let extra_of_pi i =
            let w = ref 0L in
            Array.iteri
              (fun j assignment ->
                if i < Array.length assignment && assignment.(i) then
                  w := Int64.logor !w (Int64.shift_left 1L j))
              cexes;
            !w
          in
          widen rows;
          let w = rows.width - 1 in
          set rows 0 w 0L;
          Array.iteri
            (fun i l -> set rows (Aig.Graph.node_of_lit l) w (extra_of_pi i))
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
        (* --- SAT equivalence proof via an assumption query ----------- *)
        let prove_equal la lb =
          let da = dimacs_of la and db = dimacs_of lb in
          (* Activation variable: x -> (la <> lb). *)
          let x = Sat.Solver.Incremental.new_var session in
          Sat.Solver.Incremental.add_clause session [| -x; da; db |];
          Sat.Solver.Incremental.add_clause session [| -x; -da; -db |];
          let limits =
            {
              Sat.Solver.no_limits with
              Sat.Solver.max_conflicts = Some config.conflict_limit;
            }
          in
          match
            fst
              (Sat.Solver.Incremental.solve ~limits ~assumptions:[| x |]
                 session)
          with
          | Sat.Solver.Unsat ->
            (* Deactivate permanently so the clauses become vacuous. *)
            Sat.Solver.Incremental.add_clause session [| -x |];
            `Equal
          | Sat.Solver.Unknown -> `Unknown
          | Sat.Solver.Sat model ->
            let assignment =
              Array.init npis (fun i ->
                  let v = !cnf_var.(Aig.Graph.node_of_lit new_pis.(i)) in
                  v - 1 < Array.length model && model.(v - 1))
            in
            `Different assignment
        in
        (* --- main sweep ---------------------------------------------- *)
        let map = Array.make n_old Aig.Graph.const_false in
        for i = 0 to npis - 1 do
          map.(i + 1) <- new_pis.(i)
        done;
        let map_lit l =
          Aig.Graph.lit_not_cond
            map.(Aig.Graph.node_of_lit l)
            (Aig.Graph.is_compl l)
        in
        Aig.Graph.iter_ands g (fun id ->
            let nl =
              and_tracked
                (map_lit (Aig.Graph.fanin0 g id))
                (map_lit (Aig.Graph.fanin1 g id))
            in
            let nid = Aig.Graph.node_of_lit nl in
            if not (Aig.Graph.is_and g' nid) then map.(id) <- nl
            else if nid < Bytes.length !is_rep && Bytes.get !is_rep nid = '\001'
            then map.(id) <- nl
            else begin
              match find_candidate nid with
              | None ->
                add_rep nid;
                map.(id) <- nl
              | Some cand_lit ->
                incr tried;
                let target = Aig.Graph.lit_of_node nid false in
                (match prove_equal target cand_lit with
                 | `Equal ->
                   incr proven;
                   map.(id) <-
                     Aig.Graph.lit_not_cond cand_lit (Aig.Graph.is_compl nl)
                 | `Different assignment ->
                   incr disproved;
                   cex_buffer := assignment :: !cex_buffer;
                   if List.length !cex_buffer >= 64 then refine ();
                   add_rep nid;
                   map.(id) <- nl
                 | `Unknown ->
                   add_rep nid;
                   map.(id) <- nl)
            end);
        Array.map map_lit (Aig.Graph.pos g))
  in
  last_stats := (!tried, !proven, !disproved);
  Aig.Graph.cleanup result
