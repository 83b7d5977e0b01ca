let random_circuit ~seed ~num_pis ~num_ands ~num_pos =
  let rng = Aig.Rng.create seed in
  let g = Aig.Graph.create ~num_pis in
  let lits = Array.make (num_pis + num_ands) Aig.Graph.const_false in
  for i = 0 to num_pis - 1 do
    lits.(i) <- Aig.Graph.pi g i
  done;
  let count = ref num_pis in
  (* Bias fanin choice toward recent literals: depth grows with size,
     as in real multi-level logic, instead of staying logarithmic. *)
  let pick () =
    let n = !count in
    let idx =
      if Aig.Rng.float rng < 0.6 then n - 1 - Aig.Rng.int rng (min n 12)
      else Aig.Rng.int rng n
    in
    Aig.Graph.lit_not_cond lits.(idx) (Aig.Rng.bool rng)
  in
  (* Mixed gate types: pure AND logic degenerates toward constants and
     yields trivial miters; real LEC instances (datapaths, parity
     trees) are XOR/MUX-rich, which is also what makes them hard for
     CDCL (§3.3.2 cites exactly this observation). *)
  let created = ref 0 and attempts = ref 0 in
  while !created < num_ands && !attempts < 50 * num_ands do
    incr attempts;
    let before = Aig.Graph.num_nodes g in
    let l =
      match Aig.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Aig.Graph.and_ g (pick ()) (pick ())
      | 4 | 5 | 6 -> Aig.Graph.xor_ g (pick ()) (pick ())
      | 7 | 8 -> Aig.Graph.mux_ g (pick ()) (pick ()) (pick ())
      | _ ->
        (* Majority-of-three: the carry function of a full adder. *)
        let a = pick () and b = pick () and c = pick () in
        Aig.Graph.or_ g
          (Aig.Graph.and_ g a b)
          (Aig.Graph.and_ g c (Aig.Graph.or_ g a b))
    in
    let added = Aig.Graph.num_nodes g - before in
    (* Count fresh nodes so the requested size is met. *)
    if added > 0 then begin
      lits.(!count) <- l;
      incr count;
      created := !created + added
    end
  done;
  (* Outputs from the deepest recent nodes. *)
  for i = 0 to num_pos - 1 do
    let idx = !count - 1 - (i mod max 1 (min 8 !count)) in
    Aig.Graph.add_po g (Aig.Graph.lit_not_cond lits.(idx) (i land 1 = 1))
  done;
  g

(* A fresh copy of [g], node [id] built as [node g' map_lit id].  Unlike
   the synthesis passes it does not sweep: generated structure is kept
   node for node. *)
let rebuilt g node =
  let g' = Aig.Graph.create ~num_pis:(Aig.Graph.num_pis g) in
  let map = Array.make (Aig.Graph.num_nodes g) Aig.Graph.const_false in
  for i = 1 to Aig.Graph.num_pis g do
    map.(i) <- Aig.Graph.pi g' (i - 1)
  done;
  let map_lit l =
    Aig.Graph.lit_not_cond map.(Aig.Graph.node_of_lit l) (Aig.Graph.is_compl l)
  in
  Aig.Graph.iter_ands g (fun id -> map.(id) <- node g' map_lit id);
  Array.iter (fun l -> Aig.Graph.add_po g' (map_lit l)) (Aig.Graph.pos g);
  g'

let miter = Synth.Cec.miter

let inject_fault ~seed g =
  let rng = Aig.Rng.create seed in
  if Aig.Graph.num_ands g = 0 then Aig.Graph.copy g
  else begin
    let victim =
      Aig.Graph.num_pis g + 1 + Aig.Rng.int rng (Aig.Graph.num_ands g)
    in
    let flip_first = Aig.Rng.bool rng in
    rebuilt g (fun g' map_lit id ->
        let f0 = map_lit (Aig.Graph.fanin0 g id)
        and f1 = map_lit (Aig.Graph.fanin1 g id) in
        let f0, f1 =
          if id = victim then
            if flip_first then (Aig.Graph.lit_not f0, f1)
            else (f0, Aig.Graph.lit_not f1)
          else (f0, f1)
        in
        Aig.Graph.and_ g' f0 f1)
  end

(* Function-preserving structural diversification: rebuild the circuit
   re-expressing a fraction of the nodes through a random cut's
   ISOP-factored form, gain or no gain.  Plain resynthesis is not
   enough here — on redundancy-free random logic it converges to the
   same structure, and the miter halves would strash-merge away. *)
let perturb ~seed g =
  let rng = Aig.Rng.create seed in
  let sets = Aig.Cut.enumerate g ~k:4 ~limit:6 in
  rebuilt g (fun g' map_lit id ->
      let default () =
        Aig.Graph.and_ g'
          (map_lit (Aig.Graph.fanin0 g id))
          (map_lit (Aig.Graph.fanin1 g id))
      in
      let candidates =
        List.filter
          (fun c ->
            Array.length c.Aig.Cut.leaves >= 3
            && not (Array.mem id c.Aig.Cut.leaves))
          (Aig.Cut.cuts sets id)
      in
      match candidates with
      | [] -> default ()
      | cs when Aig.Rng.float rng < 0.4 ->
        let c = List.nth cs (Aig.Rng.int rng (List.length cs)) in
        let leaves =
          Array.map
            (fun n -> map_lit (Aig.Graph.lit_of_node n false))
            c.Aig.Cut.leaves
        in
        Aig.Factor.tt_to_aig g' ~leaves (Aig.Cut.cut_tt c)
      | _ -> default ())

let generate ?(buggy = false) ~seed ~num_pis ~num_ands () =
  let golden = random_circuit ~seed ~num_pis ~num_ands ~num_pos:2 in
  let revised =
    if not buggy then golden
    else begin
      (* An injected fault can be functionally masked; retry until the
         fault is observable so the miter is really satisfiable. *)
      let rec try_fault k =
        let faulty = inject_fault ~seed:(seed + 1 + k) golden in
        if
          k < 50
          && Aig.Sim.equal_outputs golden faulty ~words:16 ~seed:(seed + 77)
        then try_fault (k + 1)
        else faulty
      in
      try_fault 0
    end
  in
  (* Structural diversification + resynthesis of the copy, as
     post-synthesis LEC inputs would differ from their golden RTL. *)
  let revised = perturb ~seed:(seed + 2) revised in
  let revised = Synth.Balance.run revised in
  miter golden revised

let training_set ~seed ~count ~min_ands ~max_ands =
  let rng = Aig.Rng.create seed in
  Array.init count (fun i ->
      let num_ands = min_ands + Aig.Rng.int rng (max 1 (max_ands - min_ands)) in
      let num_pis = 8 + Aig.Rng.int rng 24 in
      let buggy = i mod 3 = 0 in
      generate ~buggy ~seed:(seed + (1000 * (i + 1))) ~num_pis ~num_ands ())
