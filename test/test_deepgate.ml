(* Tests for the deterministic circuit embedding. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let and_graph () =
  let g = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po g (Aig.Graph.and_ g (Aig.Graph.pi g 0) (Aig.Graph.pi g 1));
  g

let xor_graph () =
  let g = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po g (Aig.Graph.xor_ g (Aig.Graph.pi g 0) (Aig.Graph.pi g 1));
  g

let test_shapes () =
  let g = and_graph () in
  let e = Deepgate.Embedding.po_embedding g in
  check "default dim" 16 (Array.length e);
  let cfg = { Deepgate.Embedding.default_config with dim = 8 } in
  check "custom dim" 8 (Array.length (Deepgate.Embedding.po_embedding ~config:cfg g));
  let h = Deepgate.Embedding.node_embeddings g in
  check "per node" (Aig.Graph.num_nodes g) (Array.length h)

let test_deterministic () =
  let e1 = Deepgate.Embedding.po_embedding (and_graph ()) in
  let e2 = Deepgate.Embedding.po_embedding (and_graph ()) in
  Alcotest.(check (float 0.0)) "identical" 0.0 (Deepgate.Embedding.distance e1 e2)

let test_function_sensitive () =
  let ea = Deepgate.Embedding.po_embedding (and_graph ()) in
  let ex = Deepgate.Embedding.po_embedding (xor_graph ()) in
  check_bool "and vs xor differ" true (Deepgate.Embedding.distance ea ex > 1e-6)

let test_structure_sensitive () =
  (* Same function, very different structure: chain vs balanced tree of
     8-input AND. *)
  let chain =
    let g = Aig.Graph.create ~num_pis:8 in
    let acc = ref (Aig.Graph.pi g 0) in
    for i = 1 to 7 do
      acc := Aig.Graph.and_ g !acc (Aig.Graph.pi g i)
    done;
    Aig.Graph.add_po g !acc;
    g
  in
  let tree =
    let g = Aig.Graph.create ~num_pis:8 in
    Aig.Graph.add_po g
      (Aig.Graph.and_list g (List.init 8 (Aig.Graph.pi g)));
    g
  in
  let ec = Deepgate.Embedding.po_embedding chain in
  let et = Deepgate.Embedding.po_embedding tree in
  check_bool "chain vs tree differ" true
    (Deepgate.Embedding.distance ec et > 1e-6)

let test_complement_flips_sign () =
  let g = and_graph () in
  let gneg = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po gneg
    (Aig.Graph.lit_not
       (Aig.Graph.and_ gneg (Aig.Graph.pi gneg 0) (Aig.Graph.pi gneg 1)));
  let e = Deepgate.Embedding.po_embedding g in
  let en = Deepgate.Embedding.po_embedding gneg in
  let flipped = Array.map (fun x -> -.x) en in
  Alcotest.(check (float 1e-9)) "complement = sign flip" 0.0
    (Deepgate.Embedding.distance e flipped)

let test_constant_po () =
  let g = Aig.Graph.create ~num_pis:1 in
  Aig.Graph.add_po g Aig.Graph.const_true;
  let e = Deepgate.Embedding.po_embedding g in
  check_bool "all zero" true (Array.for_all (fun x -> x = 0.0) e)

let test_values_bounded () =
  (* After tanh rounds the coordinates stay in a sane range. *)
  let rng = Aig.Rng.create 3 in
  let g = Aig.Graph.create ~num_pis:10 in
  let lits = ref (Array.to_list (Array.init 10 (Aig.Graph.pi g))) in
  for _ = 1 to 200 do
    let arr = Array.of_list !lits in
    let pick () =
      Aig.Graph.lit_not_cond
        arr.(Aig.Rng.int rng (Array.length arr))
        (Aig.Rng.bool rng)
    in
    lits := Aig.Graph.and_ g (pick ()) (pick ()) :: !lits
  done;
  (match !lits with l :: _ -> Aig.Graph.add_po g l | [] -> assert false);
  let e = Deepgate.Embedding.po_embedding g in
  check_bool "finite and bounded" true
    (Array.for_all (fun x -> Float.is_finite x && abs_float x <= 1.0) e)

let suite =
  [
    ("shapes", `Quick, test_shapes);
    ("deterministic", `Quick, test_deterministic);
    ("function sensitive", `Quick, test_function_sensitive);
    ("structure sensitive", `Quick, test_structure_sensitive);
    ("complement flips sign", `Quick, test_complement_flips_sign);
    ("constant PO", `Quick, test_constant_po);
    ("values bounded", `Quick, test_values_bounded);
  ]

let test_config_sensitivity () =
  (* Different seeds give different frozen weights, hence different
     embeddings — but each remains deterministic. *)
  let g =
    let g = Aig.Graph.create ~num_pis:3 in
    Aig.Graph.add_po g
      (Aig.Graph.and_ g
         (Aig.Graph.xor_ g (Aig.Graph.pi g 0) (Aig.Graph.pi g 1))
         (Aig.Graph.pi g 2));
    g
  in
  let cfg1 = Deepgate.Embedding.default_config in
  let cfg2 = { cfg1 with Deepgate.Embedding.seed = cfg1.seed + 1 } in
  let e1 = Deepgate.Embedding.po_embedding ~config:cfg1 g in
  let e2 = Deepgate.Embedding.po_embedding ~config:cfg2 g in
  check_bool "seeds differ" true (Deepgate.Embedding.distance e1 e2 > 1e-9);
  let e1' = Deepgate.Embedding.po_embedding ~config:cfg1 g in
  Alcotest.(check (float 0.0)) "still deterministic" 0.0
    (Deepgate.Embedding.distance e1 e1')

let test_rounds_effect () =
  (* More message-passing rounds changes the representation (deeper
     structural context). *)
  let g =
    let g = Aig.Graph.create ~num_pis:4 in
    let acc = ref (Aig.Graph.pi g 0) in
    for i = 1 to 3 do
      acc := Aig.Graph.and_ g !acc (Aig.Graph.pi g i)
    done;
    Aig.Graph.add_po g !acc;
    g
  in
  let base = Deepgate.Embedding.default_config in
  let e1 =
    Deepgate.Embedding.po_embedding
      ~config:{ base with Deepgate.Embedding.rounds = 1 } g
  in
  let e3 =
    Deepgate.Embedding.po_embedding
      ~config:{ base with Deepgate.Embedding.rounds = 3 } g
  in
  check_bool "rounds matter" true (Deepgate.Embedding.distance e1 e3 > 1e-9)

let test_concurrent_embeddings () =
  (* Embedding only reads the AIG: several domains embedding one shared
     graph at once must get bitwise identical results. *)
  let g = xor_graph () in
  let expect = Deepgate.Embedding.po_embedding g in
  let mismatches = Atomic.make 0 in
  let worker () =
    for _ = 1 to 100 do
      if Deepgate.Embedding.po_embedding g <> expect then
        Atomic.incr mismatches
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check "deterministic under contention" 0 (Atomic.get mismatches)

let suite =
  suite
  @ [
      ("config sensitivity", `Quick, test_config_sensitivity);
      ("rounds effect", `Quick, test_rounds_effect);
      ("concurrent embeddings agree", `Quick, test_concurrent_embeddings);
    ]
