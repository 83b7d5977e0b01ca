(* Tests for logic synthesis: every pass must preserve functionality;
   rewrite must not grow the network; balance must not deepen it; resub
   must collapse equivalence miters. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Random AIG generator shared by the synthesis tests. *)
let random_graph ~seed ~num_pis ~num_ands =
  let rng = Aig.Rng.create seed in
  let g = Aig.Graph.create ~num_pis in
  let lits = ref (Array.to_list (Array.init num_pis (Aig.Graph.pi g))) in
  for _ = 1 to num_ands do
    let arr = Array.of_list !lits in
    let pick () =
      Aig.Graph.lit_not_cond
        arr.(Aig.Rng.int rng (Array.length arr))
        (Aig.Rng.bool rng)
    in
    lits := Aig.Graph.and_ g (pick ()) (pick ()) :: !lits
  done;
  (* A couple of outputs over the most recent nodes. *)
  (match !lits with
   | a :: b :: _ ->
     Aig.Graph.add_po g a;
     Aig.Graph.add_po g (Aig.Graph.lit_not b)
   | [ a ] -> Aig.Graph.add_po g a
   | [] -> Aig.Graph.add_po g Aig.Graph.const_true);
  g

(* Exhaustive equivalence for small PI counts. *)
let exhaustive_equal a b =
  let n = Aig.Graph.num_pis a in
  assert (n = Aig.Graph.num_pis b && n <= 12);
  let npos = Aig.Graph.num_pos a in
  assert (npos = Aig.Graph.num_pos b);
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let ins = Array.init n (fun i -> m land (1 lsl i) <> 0) in
    if Aig.Sim.eval a ins <> Aig.Sim.eval b ins then ok := false
  done;
  !ok

let test_rewrite_preserves_and_shrinks () =
  for seed = 1 to 10 do
    let g = random_graph ~seed ~num_pis:6 ~num_ands:40 in
    let g' = Synth.Rewrite.run g in
    check_bool "equivalent" true (exhaustive_equal g g');
    check_bool "not larger" true
      (Aig.Graph.num_ands g' <= Aig.Graph.num_ands (Aig.Graph.cleanup g))
  done

let test_rewrite_finds_sharing () =
  (* Build a redundant structure: (a&b)|(a&c) twice with different
     shapes; rewrite should leave something no larger than the factored
     form. *)
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  let s1 = Aig.Graph.or_ g (Aig.Graph.and_ g a b) (Aig.Graph.and_ g a c) in
  Aig.Graph.add_po g s1;
  let before = Aig.Graph.num_ands g in
  let g' = Synth.Rewrite.run g in
  check_bool "equivalent" true (exhaustive_equal g g');
  check_bool "shrunk" true (Aig.Graph.num_ands g' <= before);
  (* The factored a&(b|c) form needs only 2 ANDs. *)
  check_bool "found factored form" true (Aig.Graph.num_ands g' <= 2)

let test_balance_reduces_depth () =
  (* A left-leaning chain of 16 ANDs has depth 16; balanced is 4. *)
  let g = Aig.Graph.create ~num_pis:16 in
  let acc = ref (Aig.Graph.pi g 0) in
  for i = 1 to 15 do
    acc := Aig.Graph.and_ g !acc (Aig.Graph.pi g i)
  done;
  Aig.Graph.add_po g !acc;
  check "chain depth" 15 (Aig.Graph.depth g);
  let g' = Synth.Balance.run g in
  check_bool "equivalent" true (Aig.Sim.equal_outputs g g' ~words:8 ~seed:3);
  check "balanced depth" 4 (Aig.Graph.depth g')

let test_balance_preserves_random () =
  for seed = 11 to 20 do
    let g = random_graph ~seed ~num_pis:6 ~num_ands:40 in
    let g' = Synth.Balance.run g in
    check_bool "equivalent" true (exhaustive_equal g g');
    check_bool "no deeper" true (Aig.Graph.depth g' <= Aig.Graph.depth g)
  done

let test_refactor_preserves () =
  for seed = 21 to 28 do
    let g = random_graph ~seed ~num_pis:7 ~num_ands:50 in
    let g' = Synth.Refactor.run g in
    check_bool "equivalent" true (exhaustive_equal g g')
  done

let test_resub_merges_duplicates () =
  (* XOR implemented two structurally different ways; resub must merge
     them so the miter output becomes constant false. *)
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  (* Variant 1: (a|b) & ~(a&b). *)
  let x1 = Aig.Graph.and_ g (Aig.Graph.or_ g a b)
             (Aig.Graph.lit_not (Aig.Graph.and_ g a b)) in
  (* Variant 2: (a&~b) | (~a&b). *)
  let x2 =
    Aig.Graph.or_ g
      (Aig.Graph.and_ g a (Aig.Graph.lit_not b))
      (Aig.Graph.and_ g (Aig.Graph.lit_not a) b)
  in
  Aig.Graph.add_po g (Aig.Graph.xor_ g x1 x2);
  let g' = Synth.Resub.run g in
  check_bool "equivalent" true (exhaustive_equal g g');
  (* The miter collapses: output is the constant false literal. *)
  check "miter collapsed" Aig.Graph.const_false (Aig.Graph.po g' 0);
  let _, proven, _ = Synth.Resub.stats_last_run () in
  check_bool "proved merges" true (proven > 0)

let test_resub_collapses_equivalence_miter () =
  (* Miter between a random circuit and its rewritten version: after
     resub the whole thing should collapse to constant false. *)
  let g = random_graph ~seed:77 ~num_pis:6 ~num_ands:30 in
  let g1 = Synth.Rewrite.run g in
  (* Build the miter: shared PIs, XOR of the first outputs. *)
  let m = Aig.Graph.create ~num_pis:6 in
  let pis = Array.init 6 (Aig.Graph.pi m) in
  let copy_into src =
    let mapv = Array.make (Aig.Graph.num_nodes src) Aig.Graph.const_false in
    for i = 0 to 5 do
      mapv.(i + 1) <- pis.(i)
    done;
    let map_lit l =
      Aig.Graph.lit_not_cond
        mapv.(Aig.Graph.node_of_lit l)
        (Aig.Graph.is_compl l)
    in
    Aig.Graph.iter_ands src (fun id ->
        mapv.(id) <-
          Aig.Graph.and_ m
            (map_lit (Aig.Graph.fanin0 src id))
            (map_lit (Aig.Graph.fanin1 src id)));
    map_lit (Aig.Graph.po src 0)
  in
  let o1 = copy_into g and o2 = copy_into g1 in
  Aig.Graph.add_po m (Aig.Graph.xor_ m o1 o2);
  let m' = Synth.Resub.run m in
  check "miter proved" Aig.Graph.const_false (Aig.Graph.po m' 0)

let test_resub_preserves_random () =
  for seed = 31 to 38 do
    let g = random_graph ~seed ~num_pis:6 ~num_ands:40 in
    let g' = Synth.Resub.run g in
    check_bool "equivalent" true (exhaustive_equal g g')
  done

let test_recipe_roundtrip () =
  let r = [ Synth.Recipe.Rewrite; Synth.Recipe.Balance; Synth.Recipe.Resub ] in
  let s = Synth.Recipe.to_string r in
  (match Synth.Recipe.parse s with
   | Ok r' -> check_bool "roundtrip" true (r = r')
   | Error e -> Alcotest.fail e);
  (match Synth.Recipe.parse "rw, b; rf" with
   | Ok r' ->
     check_bool "aliases" true
       (r' = [ Synth.Recipe.Rewrite; Synth.Recipe.Balance; Synth.Recipe.Refactor ])
   | Error e -> Alcotest.fail e);
  match Synth.Recipe.parse "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_recipe_indexing () =
  check "num actions" 5 Synth.Recipe.num_actions;
  List.iteri
    (fun i op ->
      check "roundtrip index" i
        (Synth.Recipe.index_of_op (Synth.Recipe.op_of_index i));
      check_bool "order matches" true (Synth.Recipe.op_of_index i = op))
    Synth.Recipe.all_ops

let test_recipe_end_stops () =
  let g = random_graph ~seed:5 ~num_pis:5 ~num_ands:20 in
  let r1 =
    Synth.Recipe.apply_sequence [ Synth.Recipe.Rewrite; Synth.Recipe.End;
                                  Synth.Recipe.Balance ] g
  in
  let r2 = Synth.Recipe.apply_sequence [ Synth.Recipe.Rewrite ] g in
  check_bool "end truncates" true (Aig.Graph.equal_structure r1 r2)

let prop_recipes_preserve_function =
  QCheck.Test.make ~name:"synth: random recipes preserve function" ~count:30
    QCheck.(pair (int_bound 100000) (list_of_size Gen.(int_range 1 4)
                                        (int_bound 4)))
    (fun (seed, ops) ->
      let g = random_graph ~seed:(seed + 1) ~num_pis:6 ~num_ands:30 in
      let recipe = List.map Synth.Recipe.op_of_index ops in
      let g' = Synth.Recipe.apply_sequence recipe g in
      exhaustive_equal g g')

let test_compress2_shrinks () =
  let g = random_graph ~seed:123 ~num_pis:8 ~num_ands:120 in
  let g' = Synth.Recipe.apply_sequence Synth.Recipe.compress2 g in
  check_bool "equivalent" true
    (Aig.Sim.equal_outputs g g' ~words:16 ~seed:9);
  check_bool "smaller" true
    (Aig.Graph.num_ands g' <= Aig.Graph.num_ands (Aig.Graph.cleanup g))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  [
    ("rewrite preserves and shrinks", `Quick, test_rewrite_preserves_and_shrinks);
    ("rewrite finds sharing", `Quick, test_rewrite_finds_sharing);
    ("balance reduces depth", `Quick, test_balance_reduces_depth);
    ("balance preserves (random)", `Quick, test_balance_preserves_random);
    ("refactor preserves (random)", `Quick, test_refactor_preserves);
    ("resub merges duplicates", `Quick, test_resub_merges_duplicates);
    ("resub collapses LEC miter", `Quick, test_resub_collapses_equivalence_miter);
    ("resub preserves (random)", `Quick, test_resub_preserves_random);
    ("recipe parse/print", `Quick, test_recipe_roundtrip);
    ("recipe indexing", `Quick, test_recipe_indexing);
    ("recipe end stops", `Quick, test_recipe_end_stops);
    ("compress2 shrinks", `Quick, test_compress2_shrinks);
  ]
  @ qsuite [ prop_recipes_preserve_function ]

(* ------------------------------------------------------------------ *)
(* CEC and windowed resubstitution *)

let test_cec_equivalent () =
  let g = random_graph ~seed:501 ~num_pis:7 ~num_ands:60 in
  let g' = Synth.Rewrite.run g in
  (match Synth.Cec.check g g' with
   | Synth.Cec.Equivalent -> ()
   | v -> Alcotest.failf "expected equivalent, got %s"
            (Synth.Cec.verdict_to_string v))

let test_cec_different_with_cex () =
  let g1 = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g1 0 and b = Aig.Graph.pi g1 1 in
  Aig.Graph.add_po g1 (Aig.Graph.and_ g1 a b);
  let g2 = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g2 0 and b = Aig.Graph.pi g2 1 in
  Aig.Graph.add_po g2 (Aig.Graph.or_ g2 a b);
  match Synth.Cec.check g1 g2 with
  | Synth.Cec.Different cex ->
    check_bool "cex distinguishes" true
      (Aig.Sim.eval g1 cex <> Aig.Sim.eval g2 cex)
  | v -> Alcotest.failf "expected different, got %s"
           (Synth.Cec.verdict_to_string v)

let test_cec_interface_mismatch () =
  let g1 = Aig.Graph.create ~num_pis:1 in
  Aig.Graph.add_po g1 (Aig.Graph.pi g1 0);
  let g2 = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po g2 (Aig.Graph.pi g2 0);
  try
    ignore (Synth.Cec.check g1 g2);
    Alcotest.fail "expected mismatch error"
  with Invalid_argument _ -> ()

let test_resub_window_crafted () =
  (* n3 = (a&c)&b can be re-expressed as n1&c where n1 = a&b is shared:
     the (a&c) node dies, net gain 1. *)
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  let n1 = Aig.Graph.and_ g a b in
  let n2 = Aig.Graph.and_ g a c in
  let n3 = Aig.Graph.and_ g n2 b in
  Aig.Graph.add_po g n1;
  Aig.Graph.add_po g n3;
  check "before" 3 (Aig.Graph.num_ands g);
  let g' = Synth.Resub_window.run g in
  check_bool "equivalent" true (exhaustive_equal g g');
  check_bool "shrunk" true (Aig.Graph.num_ands g' <= 2);
  let _, proven = Synth.Resub_window.stats_last_run () in
  check_bool "substitution proven" true (proven > 0)

let test_resub_window_preserves_random () =
  for seed = 601 to 608 do
    let g = random_graph ~seed ~num_pis:6 ~num_ands:50 in
    let g' = Synth.Resub_window.run g in
    check_bool "equivalent" true (exhaustive_equal g g');
    check_bool "not larger" true
      (Aig.Graph.num_ands g' <= Aig.Graph.num_ands (Aig.Graph.cleanup g))
  done

let suite =
  suite
  @ [
      ("cec equivalent", `Quick, test_cec_equivalent);
      ("cec different with cex", `Quick, test_cec_different_with_cex);
      ("cec interface mismatch", `Quick, test_cec_interface_mismatch);
      ("windowed resub crafted gain", `Quick, test_resub_window_crafted);
      ("windowed resub preserves (random)", `Quick,
       test_resub_window_preserves_random);
    ]

let test_refactor_wide_cone () =
  (* (x1&c) | (x2&c) | ... | (x8&c) = (x1|...|x8) & c: the whole cone
     has 9 leaves — invisible to 6-input cut rewriting, collapsed by
     the reconvergence-driven refactoring. *)
  let g = Aig.Graph.create ~num_pis:9 in
  let c = Aig.Graph.pi g 8 in
  let products =
    List.init 8 (fun i -> Aig.Graph.and_ g (Aig.Graph.pi g i) c)
  in
  (* A deliberately skewed OR chain. *)
  let root =
    List.fold_left (fun acc p -> Aig.Graph.or_ g acc p)
      Aig.Graph.const_false products
  in
  Aig.Graph.add_po g root;
  let before = Aig.Graph.num_ands g in
  check_bool "redundant structure" true (before >= 15);
  let g' = Synth.Refactor.run g in
  check_bool "equivalent" true (exhaustive_equal g g');
  (* Factored form: 7 ORs + 1 AND = 8 nodes. *)
  check_bool
    (Printf.sprintf "collapsed (%d -> %d)" before (Aig.Graph.num_ands g'))
    true
    (Aig.Graph.num_ands g' <= 8)

let suite = suite @ [ ("refactor wide cone", `Quick, test_refactor_wide_cone) ]

(* Extra coverage while calibration data settles: balance on already
   balanced trees is idempotent in depth, and resub on acyclic
   duplicate-free graphs is a no-op in size. *)

let test_balance_idempotent_depth () =
  (* A second pass can still help (the rebuild changes reference
     counts, exposing new trees) but must never deepen. *)
  for seed = 701 to 705 do
    let g = random_graph ~seed ~num_pis:6 ~num_ands:40 in
    let b1 = Synth.Balance.run g in
    let b2 = Synth.Balance.run b1 in
    check_bool "depth monotone" true
      (Aig.Graph.depth b2 <= Aig.Graph.depth b1);
    check_bool "still equivalent" true (exhaustive_equal g b2)
  done

let test_resub_noop_on_irredundant () =
  (* A balanced AND tree has no equivalent internal nodes: resub keeps
     it intact. *)
  let g = Aig.Graph.create ~num_pis:8 in
  Aig.Graph.add_po g (Aig.Graph.and_list g (List.init 8 (Aig.Graph.pi g)));
  let before = Aig.Graph.num_ands g in
  let g' = Synth.Resub.run g in
  check "size unchanged" before (Aig.Graph.num_ands g');
  let _, proven, _ = Synth.Resub.stats_last_run () in
  check "nothing proven" 0 proven

let suite =
  suite
  @ [
      ("balance depth monotone", `Quick, test_balance_idempotent_depth);
      ("resub no-op on irredundant tree", `Quick,
       test_resub_noop_on_irredundant);
    ]

(* ------------------------------------------------------------------ *)
(* Wide cuts and pinned structure *)

let test_rewrite_k6_equivalent () =
  for seed = 1 to 300 do
    let g = random_graph ~seed ~num_pis:8 ~num_ands:60 in
    (* Outputs on the last 16 ANDs expose more six-leaf cones. *)
    let n = Aig.Graph.num_nodes g in
    Aig.Graph.iter_ands g (fun id ->
        if id >= n - 16 then
          Aig.Graph.add_po g (Aig.Graph.lit_of_node id false));
    if not (exhaustive_equal g (Synth.Rewrite.run ~k:6 g)) then
      Alcotest.failf "seed %d: rewrite ~k:6 changed the function" seed
  done

(* AND count and a hash of every fanin and output literal. *)
let structure_hash g =
  let h = ref (Aig.Graph.num_pis g) in
  let mix x = h := (!h * 1_000_003) lxor x in
  Aig.Graph.iter_ands g (fun id ->
      mix (Aig.Graph.fanin0 g id);
      mix (Aig.Graph.fanin1 g id));
  Array.iter mix (Aig.Graph.pos g);
  (Aig.Graph.num_ands g, !h land 0x3FFF_FFFF_FFFF)

let golden_passes =
  [
    ("rw3", fun g -> Synth.Rewrite.run ~k:3 g);
    ("rw4", fun g -> Synth.Rewrite.run ~k:4 g);
    ("rw5", fun g -> Synth.Rewrite.run ~k:5 g);
    ("rf", fun g -> Synth.Refactor.run g);
  ]

(* Outputs of passes that built every candidate directly with
   [Aig.Factor.tt_to_aig]; a pass whose output moves by one node fails. *)
let golden_structures =
  [
    ("random 1 rw3", 78, 0x2e680b76ef1); ("random 1 rw4", 77, 0x565a7f2d386);
    ("random 1 rw5", 77, 0x565a7f2d386); ("random 1 rf", 79, 0x2749aaf11dd);
    ("random 2 rw3", 22, 0x3178069b8233); ("random 2 rw4", 22, 0x3178069b8233);
    ("random 2 rw5", 22, 0x3178069b8233); ("random 2 rf", 25, 0x2a23c977912d);
    ("random 3 rw3", 30, 0x88a063491ec); ("random 3 rw4", 30, 0x88a063491ec);
    ("random 3 rw5", 30, 0x88a063491ec); ("random 3 rf", 37, 0x230bd44a8a17);
    ("random 4 rw3", 61, 0x20eb278a48f7); ("random 4 rw4", 52, 0x31e6a85a7d49);
    ("random 4 rw5", 52, 0x31e6a85a7d49); ("random 4 rf", 64, 0xe0c07ae9e43);
    ("random 5 rw3", 98, 0x316616764e46); ("random 5 rw4", 97, 0x137bfcce30cb);
    ("random 5 rw5", 89, 0x371fac5a77c); ("random 5 rf", 92, 0x323577b3d73c);
    ("random 6 rw3", 46, 0x2edabfee99a0); ("random 6 rw4", 46, 0x2edabfee99a0);
    ("random 6 rw5", 46, 0x2edabfee99a0); ("random 6 rf", 47, 0x28ce8b36c195);
    ("I1 rw3", 1261, 0x2cf8da79961b); ("I1 rw4", 1238, 0x2693737055a6);
    ("I1 rw5", 1238, 0x2693737055a6); ("I1 rf", 1354, 0x1abb827686ea);
    ("C8 rw3", 877, 0x25b51e6e0875); ("C8 rw4", 877, 0x25b51e6e0875);
    ("C8 rw5", 877, 0x25b51e6e0875); ("C8 rf", 857, 0x1527c7b5a57);
  ]

let test_golden_structure () =
  let check_graph name g =
    List.iter
      (fun (pass, run) ->
        let key = name ^ " " ^ pass in
        let _, ands, hash =
          List.find (fun (k, _, _) -> k = key) golden_structures
        in
        let ands', hash' = structure_hash (run g) in
        check (key ^ " ands") ands ands';
        check (key ^ " hash") hash hash')
      golden_passes
  in
  for seed = 1 to 6 do
    check_graph
      (Printf.sprintf "random %d" seed)
      (random_graph ~seed ~num_pis:16 ~num_ands:600)
  done;
  let suite = Workloads.Suites.i_suite () @ Workloads.Suites.c_suite () in
  List.iter
    (fun name ->
      let _, inst =
        List.find (fun (n, _) -> String.sub n 0 2 = name) suite
      in
      check_graph name (Synth.Balance.run (Eda4sat.Instance.to_aig inst)))
    [ "I1"; "C8" ]

let suite =
  suite
  @ [
      ("rewrite k=6 equivalent", `Quick, test_rewrite_k6_equivalent);
      ("rewrite/refactor golden structure", `Quick, test_golden_structure);
    ]
