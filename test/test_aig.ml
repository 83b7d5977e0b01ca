(* Tests for the AIG substrate: graph construction, truth tables, ISOP,
   NPN, cuts, simulation, factoring, AIGER I/O. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_literals () =
  check "pack" 7 (Aig.Graph.lit_of_node 3 true);
  check "node" 3 (Aig.Graph.node_of_lit 7);
  check_bool "compl" true (Aig.Graph.is_compl 7);
  check "not" 6 (Aig.Graph.lit_not 7);
  check "not-cond" 7 (Aig.Graph.lit_not_cond 7 false);
  check "const" 0 Aig.Graph.const_false;
  check "const-true" 1 Aig.Graph.const_true

let test_and_simplification () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  check "a*0" Aig.Graph.const_false (Aig.Graph.and_ g a Aig.Graph.const_false);
  check "a*1" a (Aig.Graph.and_ g a Aig.Graph.const_true);
  check "a*a" a (Aig.Graph.and_ g a a);
  check "a*~a" Aig.Graph.const_false (Aig.Graph.and_ g a (Aig.Graph.lit_not a));
  check "no nodes yet" 0 (Aig.Graph.num_ands g);
  let ab = Aig.Graph.and_ g a b in
  let ba = Aig.Graph.and_ g b a in
  check "strash commutes" ab ba;
  check "one node" 1 (Aig.Graph.num_ands g)

let test_xor_mux () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and s = Aig.Graph.pi g 2 in
  Aig.Graph.add_po g (Aig.Graph.xor_ g a b);
  Aig.Graph.add_po g (Aig.Graph.mux_ g s a b);
  let eval va vb vs =
    Aig.Sim.eval g [| va; vb; vs |]
  in
  List.iter
    (fun (va, vb, vs) ->
      let out = eval va vb vs in
      check_bool "xor" (va <> vb) out.(0);
      check_bool "mux" (if vs then va else vb) out.(1))
    [ (false, false, false); (false, true, true); (true, false, false);
      (true, true, true); (true, false, true); (false, true, false) ]

let test_and_or_list () =
  let g = Aig.Graph.create ~num_pis:5 in
  let pis = List.init 5 (Aig.Graph.pi g) in
  Aig.Graph.add_po g (Aig.Graph.and_list g pis);
  Aig.Graph.add_po g (Aig.Graph.or_list g pis);
  check "empty and" Aig.Graph.const_true
    (Aig.Graph.and_list g []);
  check "empty or" Aig.Graph.const_false (Aig.Graph.or_list g []);
  let out = Aig.Sim.eval g [| true; true; true; true; true |] in
  check_bool "all true" true out.(0);
  let out = Aig.Sim.eval g [| true; true; false; true; true |] in
  check_bool "one false" false out.(0);
  check_bool "or true" true out.(1);
  let out = Aig.Sim.eval g [| false; false; false; false; false |] in
  check_bool "or false" false out.(1);
  (* Balanced tree of 5 inputs has depth 3. *)
  check "depth" 3 (Aig.Graph.depth g)

let test_levels_depth () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  let ab = Aig.Graph.and_ g a b in
  let abc = Aig.Graph.and_ g ab c in
  Aig.Graph.add_po g abc;
  check "depth chain" 2 (Aig.Graph.depth g);
  let lv = Aig.Graph.levels g in
  check "pi level" 0 lv.(Aig.Graph.node_of_lit a);
  check "ab level" 1 lv.(Aig.Graph.node_of_lit ab);
  check "abc level" 2 lv.(Aig.Graph.node_of_lit abc)

let test_rollback () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  let _ab = Aig.Graph.and_ g a b in
  let m = Aig.Graph.mark g in
  let x = Aig.Graph.and_ g (Aig.Graph.lit_not a) b in
  check "one new" 1 (Aig.Graph.nodes_since g m);
  Aig.Graph.rollback g m;
  check "rolled back" 1 (Aig.Graph.num_ands g);
  (* The strash entry must be gone: rebuilding creates a fresh node. *)
  let x' = Aig.Graph.and_ g (Aig.Graph.lit_not a) b in
  check "recreated at same id" x x'

let test_cleanup () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  let ab = Aig.Graph.and_ g a b in
  let _dead = Aig.Graph.and_ g ab c in
  let _dead2 = Aig.Graph.and_ g (Aig.Graph.lit_not ab) c in
  Aig.Graph.add_po g ab;
  check "before" 3 (Aig.Graph.num_ands g);
  let g' = Aig.Graph.cleanup g in
  check "after" 1 (Aig.Graph.num_ands g');
  check "pis preserved" 3 (Aig.Graph.num_pis g');
  check_bool "function preserved" true
    (Aig.Sim.equal_outputs g g' ~words:4 ~seed:11)

let test_ref_counts () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  let ab = Aig.Graph.and_ g a b in
  let x = Aig.Graph.and_ g ab (Aig.Graph.lit_not b) in
  Aig.Graph.add_po g x;
  Aig.Graph.add_po g ab;
  let rc = Aig.Graph.ref_counts g in
  check "ab refs" 2 rc.(Aig.Graph.node_of_lit ab);
  check "b refs" 2 rc.(Aig.Graph.node_of_lit b)

(* ------------------------------------------------------------------ *)
(* Truth tables *)

let tt_testable = Alcotest.testable Aig.Tt.pp Aig.Tt.equal

let test_tt_basics () =
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  check "var0" 0b1010 (Aig.Tt.to_int x0);
  check "var1" 0b1100 (Aig.Tt.to_int x1);
  check "and" 0b1000 (Aig.Tt.to_int (Aig.Tt.and_ x0 x1));
  check "or" 0b1110 (Aig.Tt.to_int (Aig.Tt.or_ x0 x1));
  check "xor" 0b0110 (Aig.Tt.to_int (Aig.Tt.xor_ x0 x1));
  check "not" 0b0101 (Aig.Tt.to_int (Aig.Tt.not_ x0));
  check_bool "const0" true (Aig.Tt.is_const_false (Aig.Tt.create_const 2 false));
  check_bool "const1" true (Aig.Tt.is_const_true (Aig.Tt.create_const 2 true));
  check "count" 3 (Aig.Tt.count_ones (Aig.Tt.or_ x0 x1))

let test_tt_cofactor_small () =
  let x0 = Aig.Tt.var 3 0 and x1 = Aig.Tt.var 3 1 and x2 = Aig.Tt.var 3 2 in
  let f = Aig.Tt.or_ (Aig.Tt.and_ x0 x1) x2 in
  Alcotest.check tt_testable "cof x0=1" (Aig.Tt.or_ x1 x2)
    (Aig.Tt.cofactor f 0 true);
  Alcotest.check tt_testable "cof x0=0" x2 (Aig.Tt.cofactor f 0 false);
  Alcotest.check tt_testable "cof x2=1"
    (Aig.Tt.create_const 3 true)
    (Aig.Tt.cofactor f 2 true);
  check_bool "depends x0" true (Aig.Tt.depends_on f 0);
  check_bool "cof indep" false (Aig.Tt.depends_on (Aig.Tt.cofactor f 0 true) 0)

let test_tt_cofactor_large () =
  (* 8 variables: two words exercise the multi-word cofactor path. *)
  let n = 8 in
  let f = ref (Aig.Tt.create_const n false) in
  for i = 0 to n - 1 do
    f := Aig.Tt.xor_ !f (Aig.Tt.var n i)
  done;
  (* Parity: cofactor on any var gives complementary halves. *)
  let c0 = Aig.Tt.cofactor !f 7 false and c1 = Aig.Tt.cofactor !f 7 true in
  Alcotest.check tt_testable "parity cofs" (Aig.Tt.not_ c0) c1;
  check "support size" n (List.length (Aig.Tt.support !f));
  check "ones" 128 (Aig.Tt.count_ones !f)

let test_tt_bits_roundtrip () =
  let f = Aig.Tt.of_int 4 0xCAFE in
  check "to_int" 0xCAFE (Aig.Tt.to_int f);
  check_bool "bit0" false (Aig.Tt.get_bit f 0);
  check_bool "bit1" true (Aig.Tt.get_bit f 1);
  let f' = Aig.Tt.set_bit f 0 true in
  check "set" 0xCAFF (Aig.Tt.to_int f');
  let f'' = Aig.Tt.set_bit f' 0 false in
  check "clear" 0xCAFE (Aig.Tt.to_int f'')

let test_tt_permute_flip () =
  let x0 = Aig.Tt.var 3 0 and x1 = Aig.Tt.var 3 1 in
  let f = Aig.Tt.and_ x0 (Aig.Tt.not_ x1) in
  (* Swap variables 0 and 1. *)
  let g = Aig.Tt.permute f [| 1; 0; 2 |] in
  Alcotest.check tt_testable "permute" (Aig.Tt.and_ x1 (Aig.Tt.not_ x0)) g;
  let h = Aig.Tt.flip f 1 in
  Alcotest.check tt_testable "flip" (Aig.Tt.and_ x0 x1) h;
  let s = Aig.Tt.swap_adjacent f 0 in
  Alcotest.check tt_testable "swap" (Aig.Tt.and_ x1 (Aig.Tt.not_ x0)) s

let prop_tt_cofactor_shannon =
  QCheck.Test.make ~name:"tt: shannon expansion" ~count:200
    (QCheck.pair (QCheck.int_bound 65535) (QCheck.int_bound 3))
    (fun (bits, i) ->
      let f = Aig.Tt.of_int 4 bits in
      let c0 = Aig.Tt.cofactor f i false and c1 = Aig.Tt.cofactor f i true in
      let xi = Aig.Tt.var 4 i in
      let rebuilt =
        Aig.Tt.or_ (Aig.Tt.and_ xi c1) (Aig.Tt.and_ (Aig.Tt.not_ xi) c0)
      in
      Aig.Tt.equal f rebuilt)

let prop_tt_expand_preserves =
  QCheck.Test.make ~name:"tt: expand keeps function on embedded vars"
    ~count:100 (QCheck.int_bound 255) (fun bits ->
      let f = Aig.Tt.of_int 3 bits in
      let g = Aig.Tt.expand f 5 [| 1; 3; 4 |] in
      (* Check all minterms agree through the embedding. *)
      let ok = ref true in
      for m = 0 to 31 do
        let proj =
          ((m lsr 1) land 1) lor (((m lsr 3) land 1) lsl 1)
          lor (((m lsr 4) land 1) lsl 2)
        in
        if Aig.Tt.get_bit g m <> Aig.Tt.get_bit f proj then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* ISOP *)

let test_isop_basic () =
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  let and2 = Aig.Tt.and_ x0 x1 in
  let xor2 = Aig.Tt.xor_ x0 x1 in
  check "and cubes" 1 (List.length (Aig.Isop.compute and2));
  check "nand cubes" 2 (List.length (Aig.Isop.compute (Aig.Tt.not_ and2)));
  check "xor cubes" 2 (List.length (Aig.Isop.compute xor2));
  check "const0 cubes" 0
    (List.length (Aig.Isop.compute (Aig.Tt.create_const 3 false)));
  check "const1 cubes" 1
    (List.length (Aig.Isop.compute (Aig.Tt.create_const 3 true)))

let test_isop_branching_fig4 () =
  (* Figure 4 of the paper: C(AND) = 3, C(XOR) = 4 under the
     primes-of-onset-plus-offset reading. *)
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  let cost f = Aig.Isop.num_cubes f + Aig.Isop.num_cubes (Aig.Tt.not_ f) in
  check "C(and)=3" 3 (cost (Aig.Tt.and_ x0 x1));
  check "C(xor)=4" 4 (cost (Aig.Tt.xor_ x0 x1));
  check "C(or)=3" 3 (cost (Aig.Tt.or_ x0 x1))

let prop_isop_exact =
  QCheck.Test.make ~name:"isop: cover equals function" ~count:500
    (QCheck.int_bound 65535) (fun bits ->
      let f = Aig.Tt.of_int 4 bits in
      Aig.Isop.verify f (Aig.Isop.compute f))

let prop_isop_irredundant =
  QCheck.Test.make ~name:"isop: cover is irredundant" ~count:200
    (QCheck.int_bound 65535) (fun bits ->
      let f = Aig.Tt.of_int 4 bits in
      let cubes = Aig.Isop.compute f in
      (* Dropping any single cube must break the cover. *)
      List.for_all
        (fun c ->
          let rest = List.filter (fun c' -> c' <> c) cubes in
          not (Aig.Isop.verify f rest))
        cubes)

(* ------------------------------------------------------------------ *)
(* NPN *)

let test_npn_classes () =
  check "n=2 classes" 4 (Aig.Npn.num_classes 2);
  check "n=3 classes" 14 (Aig.Npn.num_classes 3)

let test_npn_classes_4 () = check "n=4 classes" 222 (Aig.Npn.num_classes 4)

let prop_npn_canonical_invariant =
  QCheck.Test.make ~name:"npn: canonical form is class invariant" ~count:100
    (QCheck.pair (QCheck.int_bound 65535) (QCheck.int_bound 1023))
    (fun (bits, tr_seed) ->
      let f = Aig.Tt.of_int 4 bits in
      let canon_f, tr_f = Aig.Npn.canonicalize f in
      (* Apply a pseudo-random transform and re-canonicalize. *)
      let perm =
        match tr_seed mod 4 with
        | 0 -> [| 0; 1; 2; 3 |]
        | 1 -> [| 1; 0; 3; 2 |]
        | 2 -> [| 3; 2; 1; 0 |]
        | _ -> [| 2; 3; 0; 1 |]
      in
      let tr =
        { Aig.Npn.perm; input_neg = (tr_seed lsr 2) land 15;
          output_neg = tr_seed land 64 <> 0 }
      in
      let g = Aig.Npn.apply f tr in
      let canon_g, _ = Aig.Npn.canonicalize g in
      Aig.Tt.equal canon_f canon_g
      && Aig.Tt.equal (Aig.Npn.apply f tr_f) canon_f)

(* ------------------------------------------------------------------ *)
(* Cuts *)

let test_cut_trivial () =
  let c = Aig.Cut.trivial 5 in
  Alcotest.(check (array int)) "leaves" [| 5 |] c.Aig.Cut.leaves;
  Alcotest.check tt_testable "tt" (Aig.Tt.var 1 0) (Aig.Cut.cut_tt c)

let test_cut_enumerate_xor () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  let x = Aig.Graph.xor_ g a b in
  Aig.Graph.add_po g x;
  let sets = Aig.Cut.enumerate g ~k:4 ~limit:8 in
  let root = Aig.Graph.node_of_lit x in
  let cs = Aig.Cut.cuts sets root in
  (* The cut {a, b} must exist and its function must be XOR. *)
  let found =
    List.exists
      (fun c ->
        c.Aig.Cut.leaves = [| 1; 2 |]
        && Aig.Tt.equal (Aig.Cut.cut_tt c)
             (Aig.Tt.xor_ (Aig.Tt.var 2 0) (Aig.Tt.var 2 1)))
      cs
  in
  check_bool "xor cut found" true found

let test_cut_functions_match_simulation () =
  (* On a random circuit every enumerated cut function must agree with
     direct evaluation of the cone. *)
  let rng = Aig.Rng.create 42 in
  let g = Aig.Graph.create ~num_pis:6 in
  let lits = ref (Array.to_list (Array.init 6 (Aig.Graph.pi g))) in
  for _ = 1 to 30 do
    let arr = Array.of_list !lits in
    let a = arr.(Aig.Rng.int rng (Array.length arr))
    and b = arr.(Aig.Rng.int rng (Array.length arr)) in
    let a = Aig.Graph.lit_not_cond a (Aig.Rng.bool rng) in
    let b = Aig.Graph.lit_not_cond b (Aig.Rng.bool rng) in
    lits := Aig.Graph.and_ g a b :: !lits
  done;
  (match !lits with l :: _ -> Aig.Graph.add_po g l | [] -> assert false);
  let sets = Aig.Cut.enumerate g ~k:4 ~limit:8 in
  (* Evaluate each node under all 64 PI patterns. *)
  let inputs =
    Array.init 6 (fun i ->
        [| Int64.logand (Aig.Tt.to_int (Aig.Tt.var 6 i) |> Int64.of_int) (-1L) |])
  in
  let sigs = Aig.Sim.run g ~inputs in
  Aig.Graph.iter_ands g (fun id ->
      List.iter
        (fun c ->
          let tt = Aig.Cut.cut_tt c in
          (* Check agreement on every one of the 64 patterns. *)
          for p = 0 to 63 do
            let leaf_vals =
              Array.map
                (fun leaf ->
                  Int64.logand (Int64.shift_right_logical sigs.(leaf).(0) p) 1L
                  = 1L)
                c.Aig.Cut.leaves
            in
            let m = ref 0 in
            Array.iteri (fun i v -> if v then m := !m lor (1 lsl i)) leaf_vals;
            let expected =
              Int64.logand (Int64.shift_right_logical sigs.(id).(0) p) 1L = 1L
            in
            if Aig.Tt.get_bit tt !m <> expected then
              Alcotest.failf "cut function mismatch at node %d" id
          done)
        (Aig.Cut.cuts sets id))

(* ------------------------------------------------------------------ *)
(* Factor *)

let prop_factor_correct =
  QCheck.Test.make ~name:"factor: tt_to_aig realizes the function"
    ~count:300 (QCheck.int_bound 65535) (fun bits ->
      let f = Aig.Tt.of_int 4 bits in
      let g = Aig.Graph.create ~num_pis:4 in
      let leaves = Array.init 4 (Aig.Graph.pi g) in
      let root = Aig.Factor.tt_to_aig g ~leaves f in
      Aig.Graph.add_po g root;
      let ok = ref true in
      for m = 0 to 15 do
        let ins = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
        let out = (Aig.Sim.eval g ins).(0) in
        if out <> Aig.Tt.get_bit f m then ok := false
      done;
      !ok)

let test_factor_shares_literals () =
  (* ab + ac should factor as a(b + c): 2 ANDs rather than 3. *)
  let g = Aig.Graph.create ~num_pis:3 in
  let leaves = Array.init 3 (Aig.Graph.pi g) in
  let cube l1 l2 =
    Aig.Cube.add_pos (Aig.Cube.add_pos Aig.Cube.full l1) l2
  in
  let root = Aig.Factor.sop_to_aig g ~leaves [ cube 0 1; cube 0 2 ] in
  Aig.Graph.add_po g root;
  check "factored size" 2 (Aig.Graph.num_ands g)

(* ------------------------------------------------------------------ *)
(* Simulation *)

let test_sim_prob () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  Aig.Graph.add_po g (Aig.Graph.and_ g a b);
  let sigs = Aig.Sim.random g ~words:64 ~seed:7 in
  let p = Aig.Sim.prob_one (Aig.Sim.output_rows g sigs).(0) in
  check_bool "p(and) near 0.25" true (abs_float (p -. 0.25) < 0.05)

let test_sim_equal_outputs_negative () =
  let g1 = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g1 0 and b = Aig.Graph.pi g1 1 in
  Aig.Graph.add_po g1 (Aig.Graph.and_ g1 a b);
  let g2 = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g2 0 and b = Aig.Graph.pi g2 1 in
  Aig.Graph.add_po g2 (Aig.Graph.or_ g2 a b);
  check_bool "and <> or" false (Aig.Sim.equal_outputs g1 g2 ~words:2 ~seed:3)

(* ------------------------------------------------------------------ *)
(* AIGER *)

let test_aiger_roundtrip () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  Aig.Graph.add_po g (Aig.Graph.xor_ g (Aig.Graph.and_ g a b) c);
  Aig.Graph.add_po g (Aig.Graph.lit_not (Aig.Graph.or_ g a c));
  let s = Aig.Aiger_io.write_string g in
  let g' = Aig.Aiger_io.read_string s in
  check "pis" 3 (Aig.Graph.num_pis g');
  check "pos" 2 (Aig.Graph.num_pos g');
  check "ands" (Aig.Graph.num_ands g) (Aig.Graph.num_ands g');
  check_bool "function" true (Aig.Sim.equal_outputs g g' ~words:8 ~seed:1)

let test_aiger_const_output () =
  let g = Aig.Graph.create ~num_pis:1 in
  Aig.Graph.add_po g Aig.Graph.const_true;
  let g' = Aig.Aiger_io.read_string (Aig.Aiger_io.write_string g) in
  check "const po" Aig.Graph.const_true (Aig.Graph.po g' 0)

let test_aiger_rejects_garbage () =
  Alcotest.check_raises "no header" (Aig.Aiger_io.Parse_error "empty input")
    (fun () -> ignore (Aig.Aiger_io.read_string ""));
  (try
     ignore (Aig.Aiger_io.read_string "aag 1 1 0 1 1\n2\n2\n");
     Alcotest.fail "expected parse error"
   with Aig.Aiger_io.Parse_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  let ab = Aig.Graph.and_ g a b in
  Aig.Graph.add_po g (Aig.Graph.and_ g ab (Aig.Graph.lit_not c));
  let s = Aig.Stats.snapshot g in
  check "area" 2 s.Aig.Stats.area;
  check "depth" 2 s.Aig.Stats.depth;
  check "nots" 1 s.Aig.Stats.nots;
  let f = Aig.Stats.features ~initial:s g in
  check "feature len" 6 (Array.length f);
  Alcotest.(check (float 1e-9)) "area ratio" 1.0 f.(0);
  (* Unbalanced node: |1-0|/1 = 1 for the second AND, 0 for first. *)
  Alcotest.(check (float 1e-9)) "balance" 0.5 s.Aig.Stats.balance

let test_rng_determinism () =
  let a = Aig.Rng.create 99 and b = Aig.Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Aig.Rng.next64 a) (Aig.Rng.next64 b)
  done;
  let r = Aig.Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Aig.Rng.int r 10 in
    check_bool "bounded" true (x >= 0 && x < 10)
  done

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  [
    ("literals", `Quick, test_literals);
    ("and simplification", `Quick, test_and_simplification);
    ("xor and mux", `Quick, test_xor_mux);
    ("and/or lists", `Quick, test_and_or_list);
    ("levels and depth", `Quick, test_levels_depth);
    ("rollback", `Quick, test_rollback);
    ("cleanup", `Quick, test_cleanup);
    ("ref counts", `Quick, test_ref_counts);
    ("tt basics", `Quick, test_tt_basics);
    ("tt cofactor small", `Quick, test_tt_cofactor_small);
    ("tt cofactor large", `Quick, test_tt_cofactor_large);
    ("tt bits roundtrip", `Quick, test_tt_bits_roundtrip);
    ("tt permute flip", `Quick, test_tt_permute_flip);
    ("isop basics", `Quick, test_isop_basic);
    ("isop fig4 branching", `Quick, test_isop_branching_fig4);
    ("npn classes 2,3", `Quick, test_npn_classes);
    ("npn classes 4", `Slow, test_npn_classes_4);
    ("cut trivial", `Quick, test_cut_trivial);
    ("cut xor", `Quick, test_cut_enumerate_xor);
    ("cut functions vs simulation", `Quick, test_cut_functions_match_simulation);
    ("factor shares literals", `Quick, test_factor_shares_literals);
    ("sim probability", `Quick, test_sim_prob);
    ("sim inequality detected", `Quick, test_sim_equal_outputs_negative);
    ("aiger roundtrip", `Quick, test_aiger_roundtrip);
    ("aiger const output", `Quick, test_aiger_const_output);
    ("aiger rejects garbage", `Quick, test_aiger_rejects_garbage);
    ("stats and features", `Quick, test_stats);
    ("rng determinism", `Quick, test_rng_determinism);
  ]
  @ qsuite
      [
        prop_tt_cofactor_shannon;
        prop_tt_expand_preserves;
        prop_isop_exact;
        prop_isop_irredundant;
        prop_npn_canonical_invariant;
        prop_factor_correct;
      ]

(* ------------------------------------------------------------------ *)
(* Additional structural properties *)

let random_graph_for_props ?(num_pis = 5) ?(num_ands = 25) seed =
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
  (match !lits with l :: _ -> Aig.Graph.add_po g l | [] -> assert false);
  g

let prop_cleanup_idempotent =
  QCheck.Test.make ~name:"graph: cleanup is idempotent" ~count:50
    (QCheck.int_bound 100000) (fun seed ->
      let g = random_graph_for_props seed in
      let c1 = Aig.Graph.cleanup g in
      let c2 = Aig.Graph.cleanup c1 in
      Aig.Graph.equal_structure c1 c2)

let prop_compose_identity =
  QCheck.Test.make ~name:"graph: identity compose preserves function"
    ~count:50 (QCheck.int_bound 100000) (fun seed ->
      let g = random_graph_for_props seed in
      let g' =
        Aig.Graph.compose g (fun dst pis ->
            let map = Array.make (Aig.Graph.num_nodes g) 0 in
            Array.iteri (fun i l -> map.(i + 1) <- l) pis;
            let ml l =
              Aig.Graph.lit_not_cond
                map.(Aig.Graph.node_of_lit l)
                (Aig.Graph.is_compl l)
            in
            Aig.Graph.iter_ands g (fun id ->
                map.(id) <-
                  Aig.Graph.and_ dst
                    (ml (Aig.Graph.fanin0 g id))
                    (ml (Aig.Graph.fanin1 g id)));
            Array.map ml (Aig.Graph.pos g))
      in
      Aig.Sim.equal_outputs g g' ~words:4 ~seed:(seed + 1))

let prop_cut_dominance =
  QCheck.Test.make ~name:"cut: no cut dominates another in a node's set"
    ~count:30 (QCheck.int_bound 100000) (fun seed ->
      let g = random_graph_for_props seed in
      let sets = Aig.Cut.enumerate g ~k:4 ~limit:8 in
      let ok = ref true in
      Aig.Graph.iter_ands g (fun id ->
          let cs = Array.of_list (Aig.Cut.cuts sets id) in
          Array.iteri
            (fun i a ->
              Array.iteri
                (fun j b ->
                  if i <> j && Aig.Cut.dominates a b
                     && a.Aig.Cut.leaves <> b.Aig.Cut.leaves then ok := false)
                cs)
            cs);
      !ok)

let prop_tt_swap_involution =
  QCheck.Test.make ~name:"tt: swap_adjacent is an involution" ~count:200
    (QCheck.pair (QCheck.int_bound 65535) (QCheck.int_bound 2))
    (fun (bits, i) ->
      let f = Aig.Tt.of_int 4 bits in
      Aig.Tt.equal f (Aig.Tt.swap_adjacent (Aig.Tt.swap_adjacent f i) i))

let test_aiger_unreachable_nodes_kept () =
  (* The reader materializes AND definitions even when no output uses
     them, so file statistics survive a round trip. *)
  let s = "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n8 3 5\n" in
  let g = Aig.Aiger_io.read_string s in
  check "both ands kept" 2 (Aig.Graph.num_ands g)

let suite =
  suite
  @ [ ("aiger keeps unreachable nodes", `Quick,
       test_aiger_unreachable_nodes_kept) ]
  @ qsuite
      [
        prop_cleanup_idempotent;
        prop_compose_identity;
        prop_cut_dominance;
        prop_tt_swap_involution;
      ]

(* ------------------------------------------------------------------ *)
(* Exact small-function synthesis *)

let test_exact_known_sizes () =
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  check "and2 = 1 node" 1 (Aig.Exact.optimal_size (Aig.Tt.and_ x0 x1));
  check "or2 = 1 node" 1 (Aig.Exact.optimal_size (Aig.Tt.or_ x0 x1));
  check "xor2 = 3 nodes" 3 (Aig.Exact.optimal_size (Aig.Tt.xor_ x0 x1));
  check "var = 0 nodes" 0 (Aig.Exact.optimal_size (Aig.Tt.var 3 1));
  check "const = 0 nodes" 0
    (Aig.Exact.optimal_size (Aig.Tt.create_const 3 true));
  (* MUX(s,a,b) needs 3 AND nodes. *)
  let s = Aig.Tt.var 3 2 and a = Aig.Tt.var 3 0 and b = Aig.Tt.var 3 1 in
  let mux = Aig.Tt.or_ (Aig.Tt.and_ s a) (Aig.Tt.and_ (Aig.Tt.not_ s) b) in
  check "mux3 = 3 nodes" 3 (Aig.Exact.optimal_size mux)

let test_exact_all_functions_correct () =
  (* Every 3-variable function must be realized exactly. *)
  for bits = 0 to 255 do
    let f = Aig.Tt.of_int 3 bits in
    let g = Aig.Graph.create ~num_pis:3 in
    let leaves = Array.init 3 (Aig.Graph.pi g) in
    let root = Aig.Exact.build g ~leaves f in
    Aig.Graph.add_po g root;
    for m = 0 to 7 do
      let ins = Array.init 3 (fun i -> m land (1 lsl i) <> 0) in
      if (Aig.Sim.eval g ins).(0) <> Aig.Tt.get_bit f m then
        Alcotest.failf "function %02x wrong at minterm %d" bits m
    done
  done

let test_exact_never_beaten_by_factoring () =
  (* The exact table must never be worse than what a fresh build via
     the generic path produces for 3-input functions. *)
  for bits = 0 to 255 do
    let f = Aig.Tt.of_int 3 bits in
    let g = Aig.Graph.create ~num_pis:3 in
    let leaves = Array.init 3 (Aig.Graph.pi g) in
    ignore (Aig.Exact.build g ~leaves f);
    check_bool "exact within its own bound" true
      (Aig.Graph.num_ands g <= Aig.Exact.optimal_size f)
  done

let suite =
  suite
  @ [
      ("exact known sizes", `Quick, test_exact_known_sizes);
      ("exact realizes all 3-var functions", `Quick,
       test_exact_all_functions_correct);
      ("exact within bound", `Quick, test_exact_never_beaten_by_factoring);
    ]

(* ------------------------------------------------------------------ *)
(* Binary AIGER *)

let test_binary_aiger_roundtrip () =
  let g = random_graph_for_props 99 in
  let s = Aig.Aiger_io.write_binary_string g in
  check_bool "binary magic" true (String.sub s 0 4 = "aig ");
  let g' = Aig.Aiger_io.read_string s in
  check "pis" (Aig.Graph.num_pis g) (Aig.Graph.num_pis g');
  check "pos" (Aig.Graph.num_pos g) (Aig.Graph.num_pos g');
  check_bool "function preserved" true
    (Aig.Sim.equal_outputs g g' ~words:8 ~seed:5)

let test_binary_smaller_than_ascii () =
  let g = random_graph_for_props 123 in
  check_bool "binary more compact" true
    (String.length (Aig.Aiger_io.write_binary_string g)
     < String.length (Aig.Aiger_io.write_string g))

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"aiger: binary write/read preserves function"
    ~count:50 (QCheck.int_bound 1000000) (fun seed ->
      let g = random_graph_for_props seed in
      let g' = Aig.Aiger_io.read_string (Aig.Aiger_io.write_binary_string g) in
      Aig.Sim.equal_outputs g g' ~words:4 ~seed:(seed + 1))

let test_binary_rejects_garbage () =
  (try
     ignore (Aig.Aiger_io.read_string "aig 2 1 0 1 1\n2\n");
     Alcotest.fail "expected truncation error"
   with Aig.Aiger_io.Parse_error _ -> ());
  try
    ignore (Aig.Aiger_io.read_string "aig 5 1 0 1 1\n2\n\xff");
    Alcotest.fail "expected header mismatch error"
  with Aig.Aiger_io.Parse_error _ -> ()

let suite =
  suite
  @ [
      ("binary aiger roundtrip", `Quick, test_binary_aiger_roundtrip);
      ("binary aiger compact", `Quick, test_binary_smaller_than_ascii);
      ("binary aiger rejects garbage", `Quick, test_binary_rejects_garbage);
    ]
  @ qsuite [ prop_binary_roundtrip ]

let test_dot_export () =
  let g = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po g
    (Aig.Graph.lit_not (Aig.Graph.and_ g (Aig.Graph.pi g 0) (Aig.Graph.pi g 1)));
  let s = Aig.Dot.of_graph g in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "digraph" true (contains "digraph");
  check_bool "pi node" true (contains "n1 [shape=triangle");
  check_bool "dashed complement" true (contains "style=dashed");
  check_bool "output node" true (contains "o0")

let suite = suite @ [ ("dot export", `Quick, test_dot_export) ]

(* ------------------------------------------------------------------ *)
(* Cut functions at every width, and factored-form record/replay *)

(* Function of node [id] over [leaves], evaluated through its cone. *)
let cone_tt g id leaves =
  let k = Array.length leaves in
  let memo = Hashtbl.create 16 in
  Hashtbl.replace memo 0 (Aig.Tt.create_const k false);
  Array.iteri (fun i leaf -> Hashtbl.replace memo leaf (Aig.Tt.var k i)) leaves;
  let rec eval n =
    match Hashtbl.find_opt memo n with
    | Some t -> t
    | None ->
      let value l =
        let t = eval (Aig.Graph.node_of_lit l) in
        if Aig.Graph.is_compl l then Aig.Tt.not_ t else t
      in
      let t =
        Aig.Tt.and_ (value (Aig.Graph.fanin0 g n)) (value (Aig.Graph.fanin1 g n))
      in
      Hashtbl.replace memo n t;
      t
  in
  eval id

let test_cut_tt_every_width () =
  (* Six-leaf cuts once lost the complement of their fanins: the
     all-ones mask over 64 minterms was computed as 1 lsl 64 - 1. *)
  let six_leaf = ref 0 in
  for seed = 1 to 40 do
    let g = random_graph_for_props ~num_pis:8 ~num_ands:60 seed in
    for k = 2 to 6 do
      let sets = Aig.Cut.enumerate g ~k ~limit:8 in
      Aig.Graph.iter_ands g (fun id ->
          List.iter
            (fun c ->
              let leaves = c.Aig.Cut.leaves in
              if Array.length leaves = 6 then incr six_leaf;
              if not (Aig.Tt.equal (Aig.Cut.cut_tt c) (cone_tt g id leaves))
              then
                Alcotest.failf "seed %d k=%d node %d: %d-leaf cut tt %s" seed
                  k id (Array.length leaves)
                  (Aig.Tt.to_hex (Aig.Cut.cut_tt c)))
            (Aig.Cut.cuts sets id))
    done
  done;
  check_bool "six-leaf cuts checked" true (!six_leaf > 0)

let test_cut_expand_tt_vs_tt_expand () =
  (* Every leaf subset of a union of up to six, against the generic
     truth-table expansion. *)
  let rng = Aig.Rng.create 11 in
  for k = 1 to 6 do
    let union = Array.init k (fun i -> 10 + (3 * i)) in
    for subset = 1 to (1 lsl k) - 1 do
      let pos =
        List.filter (fun i -> subset land (1 lsl i) <> 0) (List.init k Fun.id)
        |> Array.of_list
      in
      let leaves = Array.map (fun i -> union.(i)) pos in
      let l = Array.length leaves in
      for _ = 1 to 20 do
        let chunk shift =
          Int64.shift_left (Int64.of_int (Aig.Rng.int rng (1 lsl 30))) shift
        in
        let bits = Int64.logor (chunk 0) (Int64.logor (chunk 30) (chunk 60)) in
        let expected = Aig.Tt.expand (Aig.Tt.of_int64 l bits) k pos in
        let raw = Aig.Cut.expand_tt bits leaves union in
        let got = Aig.Tt.of_int64 k raw in
        if raw <> Int64.logand raw (Aig.Tt.word_mask k)
           || not (Aig.Tt.equal expected got)
        then
          Alcotest.failf "k=%d subset %x bits %Lx: %s vs %s" k subset bits
            (Aig.Tt.to_hex expected) (Aig.Tt.to_hex got)
      done
    done
  done

let test_factor_replay_matches_direct () =
  (* Leaves come from a host graph that already holds structure, and
     may coincide, be complements of each other or be constants: replay
     must fold and share exactly as a direct build does. *)
  let host = random_graph_for_props ~num_pis:6 ~num_ands:30 7 in
  let pool =
    Array.init (2 * Aig.Graph.num_nodes host - 2) (fun i -> i + 2)
  in
  let rng = Aig.Rng.create 2024 in
  let random_leaves k =
    let leaves = Array.make k Aig.Graph.const_false in
    for i = 0 to k - 1 do
      leaves.(i) <-
        (match Aig.Rng.int rng 8 with
         | 0 -> Aig.Graph.lit_not_cond Aig.Graph.const_false (Aig.Rng.bool rng)
         | 1 when i > 0 -> leaves.(Aig.Rng.int rng i)
         | 2 when i > 0 -> Aig.Graph.lit_not leaves.(Aig.Rng.int rng i)
         | _ -> pool.(Aig.Rng.int rng (Array.length pool)))
    done;
    leaves
  in
  let cache = Aig.Factor.create_cache () in
  let check_one f leaves =
    let direct = Aig.Graph.copy host and replayed = Aig.Graph.copy host in
    let l_direct = Aig.Factor.tt_to_aig direct ~leaves f in
    let l_replayed = Aig.Factor.tt_to_aig_cached cache replayed ~leaves f in
    if l_direct <> l_replayed
       || not (Aig.Graph.equal_structure direct replayed)
    then
      Alcotest.failf "%a on leaves [%s]: literal %d vs %d, %d vs %d nodes"
        Aig.Tt.pp f
        (String.concat "; " (Array.to_list (Array.map string_of_int leaves)))
        l_direct l_replayed
        (Aig.Graph.num_nodes direct)
        (Aig.Graph.num_nodes replayed)
  in
  for bits = 0 to 255 do
    let f = Aig.Tt.of_int 3 bits in
    check_one f (Array.init 3 (Aig.Graph.pi host));
    for _ = 1 to 8 do
      check_one f (random_leaves 3)
    done
  done;
  for _ = 1 to 4096 do
    let f = Aig.Tt.of_int 4 (Aig.Rng.int rng 65536) in
    check_one f (random_leaves 4);
    check_one f (random_leaves 4)
  done

let suite =
  suite
  @ [
      ("cut tt at every width", `Quick, test_cut_tt_every_width);
      ("cut expand_tt vs Tt.expand", `Quick, test_cut_expand_tt_vs_tt_expand);
      ("factor replay matches direct build", `Quick,
       test_factor_replay_matches_direct);
    ]
