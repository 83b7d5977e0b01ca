type result = {
  graph : Aig.Graph.t;
  pi_vars : int array;
  var_lit : Aig.Graph.lit array;
  gates_recovered : int;
  xors_recovered : int;
  clauses_absorbed : int;
}

type gate =
  | And_gate of { out_lit : int; others : int array }
    (* lit(out_lit) = AND over (not m) for m in others. *)
  | Xor_gate of { out_lit : int; a : int; b : int }
    (* lit(out_lit) = a xor b (DIMACS literals a, b). *)

type candidate = {
  out_var : int;
  gate : gate;
  width : int;
  absorbed : int list; (* indices of the clauses the definition implies *)
}

let sorted_key c =
  let c = Array.copy c in
  Array.sort compare c;
  c

(* Scan the clause set for AND and XOR definition patterns.  Every
   (clause, output literal) pair is examined; callers filter and rank
   the returned candidates.  The scan is most of [run]'s time, so it
   polls the stop scope once per clause. *)
let collect_candidates clauses clause_index =
  let mem_clause lits =
    Hashtbl.find_opt clause_index (sorted_key (Array.of_list lits))
  in
  let candidates = ref [] in
  Array.iteri
    (fun ci c ->
      Aig.Interrupt.poll ();
      let len = Array.length c in
      if len >= 2 then begin
        let vars = Array.map abs c in
        let k = sorted_key vars in
        let distinct =
          let ok = ref true in
          for i = 1 to len - 1 do
            if k.(i) = k.(i - 1) then ok := false
          done;
          !ok
        in
        if distinct then
          Array.iteri
            (fun j l ->
              let others =
                Array.of_list
                  (List.filteri (fun j' _ -> j' <> j) (Array.to_list c))
              in
              (* AND pattern: binaries (-l, -m) for every other m. *)
              let binaries =
                Array.to_list others
                |> List.map (fun m -> mem_clause [ -l; -m ])
              in
              if List.for_all Option.is_some binaries then begin
                let absorbed =
                  ci
                  :: List.concat_map
                       (function Some idxs -> idxs | None -> [])
                       binaries
                in
                candidates :=
                  {
                    out_var = abs l;
                    gate = And_gate { out_lit = l; others };
                    width = Array.length others;
                    absorbed;
                  }
                  :: !candidates
              end;
              (* XOR pattern on ternary clauses: the three two-flip
                 variants must be present; then (not l) = m1 xor m2. *)
              if len = 3 then begin
                match Array.to_list others with
                | [ m1; m2 ] -> (
                  let v1 = mem_clause [ l; -m1; -m2 ]
                  and v2 = mem_clause [ -l; m1; -m2 ]
                  and v3 = mem_clause [ -l; -m1; m2 ] in
                  match (v1, v2, v3) with
                  | Some i1, Some i2, Some i3 ->
                    candidates :=
                      {
                        out_var = abs l;
                        gate = Xor_gate { out_lit = -l; a = m1; b = m2 };
                        width = 2;
                        absorbed = ci :: (i1 @ i2 @ i3);
                      }
                      :: !candidates
                  | _ -> ())
                | _ -> assert false
              end)
            c
      end)
    clauses;
  !candidates

let gate_input_vars = function
  | And_gate { others; _ } -> Array.to_list (Array.map abs others)
  | Xor_gate { a; b; _ } -> [ abs a; abs b ]

(* Basic mode: accept only definitions whose inputs have smaller
   variable indices — acyclic by construction, one (widest) definition
   per variable. *)
let select_basic candidates =
  let chosen = Hashtbl.create 256 in
  List.iter
    (fun cand ->
      if List.for_all (fun v -> v < cand.out_var) (gate_input_vars cand.gate)
      then
        match Hashtbl.find_opt chosen cand.out_var with
        | Some prev when prev.width >= cand.width -> ()
        | Some _ | None -> Hashtbl.replace chosen cand.out_var cand)
    candidates;
  chosen

(* Advanced mode (§4.6 future work): start from the order-consistent
   choices (so recovery never regresses below basic mode), then rank
   the remaining candidates by width and accept greedily under an
   explicit dependency-cycle check — gate recovery becomes independent
   of variable numbering. *)
let select_advanced candidates =
  let chosen : (int, candidate) Hashtbl.t = select_basic candidates in
  (* depends v = input vars of v's chosen definition. *)
  let creates_cycle out inputs =
    (* Does out appear in the transitive dependencies of any input? *)
    let visited = Hashtbl.create 64 in
    let rec reaches v =
      v = out
      || (not (Hashtbl.mem visited v))
         && begin
           Hashtbl.add visited v ();
           match Hashtbl.find_opt chosen v with
           | None -> false
           | Some c -> List.exists reaches (gate_input_vars c.gate)
         end
    in
    List.exists reaches inputs
  in
  let ranked =
    List.sort
      (fun a b ->
        let d = compare b.width a.width in
        if d <> 0 then d else compare a.out_var b.out_var)
      candidates
  in
  List.iter
    (fun cand ->
      if not (Hashtbl.mem chosen cand.out_var) then begin
        let inputs = gate_input_vars cand.gate in
        if
          (not (List.mem cand.out_var inputs))
          && not (creates_cycle cand.out_var inputs)
        then Hashtbl.replace chosen cand.out_var cand
      end)
    ranked;
  chosen

let run ?(advanced = false) f =
  let clauses = f.Formula.clauses in
  let nclauses = Array.length clauses in
  let clause_index : (int array, int list) Hashtbl.t =
    Hashtbl.create (2 * nclauses)
  in
  Array.iteri
    (fun i c ->
      let k = sorted_key c in
      let prev = Option.value (Hashtbl.find_opt clause_index k) ~default:[] in
      Hashtbl.replace clause_index k (i :: prev))
    clauses;
  let candidates = collect_candidates clauses clause_index in
  let chosen =
    if advanced then select_advanced candidates else select_basic candidates
  in
  let absorbed = Array.make nclauses false in
  Hashtbl.iter
    (fun _v cand -> List.iter (fun i -> absorbed.(i) <- true) cand.absorbed)
    chosen;
  let defined v = Hashtbl.mem chosen v in
  (* Sized by the largest variable that occurs, not by the header,
     which may declare a billion variables over one clause. *)
  let num_vars =
    Array.fold_left
      (Array.fold_left (fun m l -> max m (abs l)))
      0 clauses
  in
  let pi_vars =
    List.init num_vars (fun i -> i + 1)
    |> List.filter (fun v -> not (defined v))
    |> Array.of_list
  in
  let g = Aig.Graph.create ~num_pis:(Array.length pi_vars) in
  let var_lit = Array.make (num_vars + 1) Aig.Graph.const_false in
  let built = Array.make (num_vars + 1) false in
  Array.iteri
    (fun i v ->
      var_lit.(v) <- Aig.Graph.pi g i;
      built.(v) <- true)
    pi_vars;
  (* Materialize gates in dependency order. *)
  let rec build v =
    if not built.(v) then begin
      built.(v) <- true;
      match Hashtbl.find_opt chosen v with
      | None -> assert false (* PIs are pre-built *)
      | Some cand ->
        List.iter build (gate_input_vars cand.gate);
        let lit_of_dimacs l =
          Aig.Graph.lit_not_cond var_lit.(abs l) (l < 0)
        in
        let value =
          match cand.gate with
          | And_gate { out_lit; others } ->
            let conj =
              Aig.Graph.and_list g
                (Array.to_list others |> List.map (fun m -> lit_of_dimacs (-m)))
            in
            Aig.Graph.lit_not_cond conj (out_lit < 0)
          | Xor_gate { out_lit; a; b } ->
            let x = Aig.Graph.xor_ g (lit_of_dimacs a) (lit_of_dimacs b) in
            Aig.Graph.lit_not_cond x (out_lit < 0)
        in
        var_lit.(v) <- value
    end
  in
  Hashtbl.iter (fun v _ -> build v) chosen;
  let lit_of_dimacs l = Aig.Graph.lit_not_cond var_lit.(abs l) (l < 0) in
  (* XOR constraints among the clauses no gate absorbed: complete
     parity clause sets with no output, found by the solver's own
     detector.  Each becomes a balanced XOR tree over its variables,
     asserted as a primary output of its own, and absorbs every clause
     of its parity class.  A member clause written with a repeated
     literal misses the sorted-key lookup and stays a (redundant)
     cone. *)
  let gauss = Gauss.local nclauses in
  Array.iteri
    (fun i c -> if not absorbed.(i) then Gauss.add_clause gauss c)
    clauses;
  let xors = Gauss.xors gauss in
  let xor_pos =
    List.map
      (fun (vars, rhs) ->
        let k = Array.length vars in
        for pat = 0 to (1 lsl k) - 1 do
          (* The clause negating variable i when bit i is set forbids
             the assignment with [negs] variables true: it is one of
             the XOR's clauses when that parity is not [rhs]. *)
          let negs = ref 0 in
          for i = 0 to k - 1 do
            if pat land (1 lsl i) <> 0 then incr negs
          done;
          if (!negs land 1 = 0) = rhs then
            let c =
              Array.mapi (fun i v -> if pat land (1 lsl i) <> 0 then -v else v)
                vars
            in
            match Hashtbl.find_opt clause_index (sorted_key c) with
            | Some idxs -> List.iter (fun i -> absorbed.(i) <- true) idxs
            | None -> ()
        done;
        let rec tree lo hi =
          if hi - lo = 1 then var_lit.(vars.(lo))
          else
            let mid = (lo + hi) / 2 in
            Aig.Graph.xor_ g (tree lo mid) (tree mid hi)
        in
        Aig.Graph.lit_not_cond (tree 0 k) (not rhs))
      xors
  in
  (* Remaining clauses: constraint cones conjoined into one PO.
     The conjunction is chained linearly, matching the behaviour (and
     the narrow, thousands-of-levels AIG shape) of the cnf2aig tool the
     paper discusses in §4.6; the synthesis operations — balance in
     particular — are what reshape it.  Left out when the XOR outputs
     already hold every clause. *)
  let po = ref Aig.Graph.const_true in
  let clauses_absorbed = ref 0 in
  Array.iteri
    (fun i c ->
      if absorbed.(i) then incr clauses_absorbed
      else
        let cone =
          Aig.Graph.or_list g (Array.to_list c |> List.map lit_of_dimacs)
        in
        po := Aig.Graph.and_ g !po cone)
    clauses;
  if !po <> Aig.Graph.const_true || xor_pos = [] then Aig.Graph.add_po g !po;
  List.iter (Aig.Graph.add_po g) xor_pos;
  {
    graph = g;
    pi_vars;
    var_lit;
    gates_recovered = Hashtbl.length chosen;
    xors_recovered = List.length xors;
    clauses_absorbed = !clauses_absorbed;
  }

let stats r =
  Printf.sprintf
    "cnf2aig: %d gates recovered, %d XORs recovered, %d clauses absorbed, \
     %d PIs, %d ANDs"
    r.gates_recovered r.xors_recovered r.clauses_absorbed
    (Aig.Graph.num_pis r.graph)
    (Aig.Graph.num_ands r.graph)
