(* Tests for LUT mapping: cost metrics (Fig. 4), functional
   preservation of mapping, netlist structure, and lut2cnf. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
  (match !lits with
   | a :: b :: _ ->
     Aig.Graph.add_po g a;
     Aig.Graph.add_po g (Aig.Graph.lit_not b)
   | [ a ] -> Aig.Graph.add_po g a
   | [] -> Aig.Graph.add_po g Aig.Graph.const_true);
  g

let test_cost_fig4 () =
  let x0 = Aig.Tt.var 2 0 and x1 = Aig.Tt.var 2 1 in
  check "C(and2)=3" 3 (Lutmap.Cost.branching (Aig.Tt.and_ x0 x1));
  check "C(xor2)=4" 4 (Lutmap.Cost.branching (Aig.Tt.xor_ x0 x1));
  check "C(or2)=3" 3 (Lutmap.Cost.branching (Aig.Tt.or_ x0 x1));
  check "C(buffer)=2" 2 (Lutmap.Cost.branching (Aig.Tt.var 1 0));
  check "C(const)=1" 1 (Lutmap.Cost.branching (Aig.Tt.create_const 2 true));
  (* XOR is the most expensive 2-input function. *)
  let worst = ref 0 in
  for bits = 0 to 15 do
    worst := max !worst (Lutmap.Cost.branching (Aig.Tt.of_int 2 bits))
  done;
  check "xor2 is worst" 4 !worst;
  check "conventional is flat" 1
    (Lutmap.Cost.conventional (Aig.Tt.xor_ x0 x1))

let test_cost_int64_and_table () =
  (* xor2 packed: 0b0110. *)
  check "packed xor" 4 (Lutmap.Cost.branching (Aig.Tt.of_int64 2 0b0110L));
  let table = Lutmap.Cost.table_for_arity 3 in
  check "14 classes at n=3" 14 (List.length table);
  List.iter (fun (_f, c) -> check_bool "cost positive" true (c >= 1)) table;
  (* 3-input parity: worst 3-input branching complexity (8 primes). *)
  let parity3 =
    Aig.Tt.xor_ (Aig.Tt.var 3 0) (Aig.Tt.xor_ (Aig.Tt.var 3 1) (Aig.Tt.var 3 2))
  in
  check "C(xor3)=8" 8 (Lutmap.Cost.branching parity3);
  let worst = List.fold_left (fun acc (_, c) -> max acc c) 0 table in
  check "parity is the 3-input maximum" 8 worst

let exhaustive_matches g nl =
  let n = Aig.Graph.num_pis g in
  assert (n <= 12);
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let ins = Array.init n (fun i -> m land (1 lsl i) <> 0) in
    if Aig.Sim.eval g ins <> Lutmap.Netlist.eval nl ins then ok := false
  done;
  !ok

let test_mapper_preserves_function () =
  for seed = 41 to 50 do
    let g = random_graph ~seed ~num_pis:7 ~num_ands:60 in
    let nl = Lutmap.Mapper.run g in
    check_bool "functions match" true (exhaustive_matches g nl);
    check_bool "fanin bound" true (Lutmap.Netlist.max_fanin nl <= 4);
    check_bool "fewer luts than ands" true
      (Lutmap.Netlist.num_luts nl <= Aig.Graph.num_ands g)
  done

let test_mapper_cost_customized_preserves () =
  for seed = 51 to 58 do
    let g = random_graph ~seed ~num_pis:7 ~num_ands:60 in
    let nl = Lutmap.Mapper.run ~config:Lutmap.Mapper.cost_customized_config g in
    check_bool "functions match" true (exhaustive_matches g nl)
  done

let test_mapper_reduces_depth () =
  (* A 15-node AND chain maps into 4-LUTs of depth ceil(15/2)... at
     most; delay-oriented mapping must cut the depth well below 15. *)
  let g = Aig.Graph.create ~num_pis:16 in
  let acc = ref (Aig.Graph.pi g 0) in
  for i = 1 to 15 do
    acc := Aig.Graph.and_ g !acc (Aig.Graph.pi g i)
  done;
  Aig.Graph.add_po g !acc;
  let nl = Lutmap.Mapper.run g in
  check_bool "depth reduced" true (Lutmap.Netlist.depth nl <= 7);
  (* 16 PIs: check on random patterns instead of exhaustively. *)
  let rng = Aig.Rng.create 17 in
  for _ = 1 to 200 do
    let ins = Array.init 16 (fun _ -> Aig.Rng.bool rng) in
    check_bool "functions match" true
      (Aig.Sim.eval g ins = Lutmap.Netlist.eval nl ins)
  done

let test_cost_customized_lowers_branching_cost () =
  (* Aggregate over seeds: the branching-aware mapper must not produce
     higher total branching complexity than the conventional one. *)
  let conv = ref 0 and custom = ref 0 in
  for seed = 61 to 75 do
    let g = random_graph ~seed ~num_pis:8 ~num_ands:120 in
    let nl_conv = Lutmap.Mapper.run g in
    let nl_cust =
      Lutmap.Mapper.run ~config:Lutmap.Mapper.cost_customized_config g
    in
    conv := !conv + Lutmap.Mapper.total_cost Lutmap.Cost.branching nl_conv;
    custom := !custom + Lutmap.Mapper.total_cost Lutmap.Cost.branching nl_cust
  done;
  check_bool
    (Printf.sprintf "custom (%d) <= conventional (%d)" !custom !conv)
    true (!custom <= !conv)

let test_netlist_validate () =
  let bad =
    {
      Lutmap.Netlist.num_inputs = 1;
      luts =
        [|
          {
            Lutmap.Netlist.tt = Aig.Tt.var 2 0;
            fanins = [| Lutmap.Netlist.Input 0 |];
          };
        |];
      outputs = [| (Lutmap.Netlist.Lut_out 0, false) |];
    }
  in
  (try
     Lutmap.Netlist.validate bad;
     Alcotest.fail "expected arity mismatch"
   with Invalid_argument _ -> ());
  let cyclic =
    {
      Lutmap.Netlist.num_inputs = 1;
      luts =
        [|
          {
            Lutmap.Netlist.tt = Aig.Tt.var 1 0;
            fanins = [| Lutmap.Netlist.Lut_out 0 |];
          };
        |];
      outputs = [| (Lutmap.Netlist.Lut_out 0, false) |];
    }
  in
  try
    Lutmap.Netlist.validate cyclic;
    Alcotest.fail "expected topological violation"
  with Invalid_argument _ -> ()

let test_netlist_stats () =
  (* Two LUTs in a chain: depth 2, 1.0 luts/level. *)
  let nl =
    {
      Lutmap.Netlist.num_inputs = 2;
      luts =
        [|
          {
            Lutmap.Netlist.tt =
              Aig.Tt.and_ (Aig.Tt.var 2 0) (Aig.Tt.var 2 1);
            fanins = [| Lutmap.Netlist.Input 0; Lutmap.Netlist.Input 1 |];
          };
          {
            Lutmap.Netlist.tt = Aig.Tt.not_ (Aig.Tt.var 1 0);
            fanins = [| Lutmap.Netlist.Lut_out 0 |];
          };
        |];
      outputs = [| (Lutmap.Netlist.Lut_out 1, false) |];
    }
  in
  Lutmap.Netlist.validate nl;
  check "depth" 2 (Lutmap.Netlist.depth nl);
  Alcotest.(check (float 1e-9)) "luts/level" 1.0
    (Lutmap.Netlist.luts_per_level nl);
  let out = Lutmap.Netlist.eval nl [| true; true |] in
  check_bool "nand chain" false out.(0)

let brute_force f =
  let n = f.Cnf.Formula.num_vars in
  assert (n <= 20);
  let rec go m =
    if m >= 1 lsl n then None
    else
      let a = Array.init n (fun i -> m land (1 lsl i) <> 0) in
      if Cnf.Formula.eval f a then Some a else go (m + 1)
  in
  go 0

let test_encode_agrees_with_eval () =
  for seed = 81 to 88 do
    let g = random_graph ~seed ~num_pis:4 ~num_ands:20 in
    let nl = Lutmap.Mapper.run ~config:Lutmap.Mapper.cost_customized_config g in
    let enc = Lutmap.Encode.encode nl in
    (* Satisfiable iff some input drives all outputs to 1; models must
       project onto inputs that do. *)
    let expected =
      let found = ref false in
      for m = 0 to 15 do
        let ins = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
        if Array.for_all Fun.id (Lutmap.Netlist.eval nl ins) then found := true
      done;
      !found
    in
    match brute_force enc.Lutmap.Encode.formula with
    | Some model ->
      check_bool "expected satisfiable" true expected;
      let ins = Array.init 4 (fun i -> model.(i)) in
      check_bool "model drives outputs" true
        (Array.for_all Fun.id (Lutmap.Netlist.eval nl ins))
    | None -> check_bool "expected unsatisfiable" false expected
  done

let test_encode_clause_count_is_branching_complexity () =
  (* One XOR LUT: exactly 4 clauses plus the output unit. *)
  let nl =
    {
      Lutmap.Netlist.num_inputs = 2;
      luts =
        [|
          {
            Lutmap.Netlist.tt = Aig.Tt.xor_ (Aig.Tt.var 2 0) (Aig.Tt.var 2 1);
            fanins = [| Lutmap.Netlist.Input 0; Lutmap.Netlist.Input 1 |];
          };
        |];
      outputs = [| (Lutmap.Netlist.Lut_out 0, false) |];
    }
  in
  let enc = Lutmap.Encode.encode nl in
  check "4 + 1 clauses" 5 (Cnf.Formula.num_clauses enc.Lutmap.Encode.formula)

let test_encode_const_output () =
  let nl =
    {
      Lutmap.Netlist.num_inputs = 0;
      luts = [||];
      outputs = [| (Lutmap.Netlist.Const false, false) |];
    }
  in
  let enc = Lutmap.Encode.encode nl in
  check_bool "const false output unsat" true
    (Cnf.Formula.is_trivially_unsat enc.Lutmap.Encode.formula)

let suite =
  [
    ("branching cost matches Fig.4", `Quick, test_cost_fig4);
    ("packed cost and class table", `Quick, test_cost_int64_and_table);
    ("mapper preserves function", `Quick, test_mapper_preserves_function);
    ("cost-customized mapper preserves", `Quick,
     test_mapper_cost_customized_preserves);
    ("mapper reduces depth", `Quick, test_mapper_reduces_depth);
    ("cost-customized lowers branching cost", `Quick,
     test_cost_customized_lowers_branching_cost);
    ("netlist validation", `Quick, test_netlist_validate);
    ("netlist stats", `Quick, test_netlist_stats);
    ("lut2cnf agrees with eval", `Quick, test_encode_agrees_with_eval);
    ("lut2cnf clause count", `Quick, test_encode_clause_count_is_branching_complexity);
    ("lut2cnf const output", `Quick, test_encode_const_output);
  ]

(* ------------------------------------------------------------------ *)
(* BLIF *)

let test_blif_roundtrip () =
  for seed = 91 to 96 do
    let g = random_graph ~seed ~num_pis:5 ~num_ands:30 in
    let nl = Lutmap.Mapper.run g in
    let s = Lutmap.Blif.write_string nl in
    let nl' = Lutmap.Blif.read_string s in
    check "inputs" nl.Lutmap.Netlist.num_inputs nl'.Lutmap.Netlist.num_inputs;
    check "outputs"
      (Array.length nl.Lutmap.Netlist.outputs)
      (Array.length nl'.Lutmap.Netlist.outputs);
    for m = 0 to 31 do
      let ins = Array.init 5 (fun i -> m land (1 lsl i) <> 0) in
      check_bool "function preserved" true
        (Lutmap.Netlist.eval nl ins = Lutmap.Netlist.eval nl' ins)
    done
  done

let test_blif_reads_offset_cover_and_comments () =
  let s =
    "# a NAND via an off-set cover\n\
     .model t\n\
     .inputs a b\n\
     .outputs y\n\
     .names a b y\n\
     11 0\n\
     .end\n"
  in
  let nl = Lutmap.Blif.read_string s in
  check_bool "nand(1,1)=0" true
    (Lutmap.Netlist.eval nl [| true; true |] = [| false |]);
  check_bool "nand(1,0)=1" true
    (Lutmap.Netlist.eval nl [| true; false |] = [| true |])

let test_blif_continuation_lines () =
  let s =
    ".model t\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
  in
  let nl = Lutmap.Blif.read_string s in
  check "two inputs" 2 nl.Lutmap.Netlist.num_inputs

let test_blif_errors () =
  let expect s =
    try
      ignore (Lutmap.Blif.read_string s);
      Alcotest.failf "expected parse error on %S" s
    with Lutmap.Blif.Parse_error _ -> ()
  in
  expect ".model t\n.inputs a\n.outputs y\n.names z y\n1 1\n.end\n";
  (* undefined signal *)
  expect ".model t\n.inputs a\n.outputs y\n.names y y\n1 1\n.end\n";
  (* loop *)
  expect
    ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end\n";
  (* mixed polarity *)
  expect ".model a\n.model b\n.end\n" (* two models *)

let test_blif_constants () =
  let nl =
    {
      Lutmap.Netlist.num_inputs = 1;
      luts = [||];
      outputs = [| (Lutmap.Netlist.Const true, false) |];
    }
  in
  let s = Lutmap.Blif.write_string nl in
  let nl' = Lutmap.Blif.read_string s in
  check_bool "const output" true
    (Lutmap.Netlist.eval nl' [| false |] = [| true |])

let suite =
  suite
  @ [
      ("blif roundtrip", `Quick, test_blif_roundtrip);
      ("blif off-set cover", `Quick, test_blif_reads_offset_cover_and_comments);
      ("blif continuation lines", `Quick, test_blif_continuation_lines);
      ("blif errors", `Quick, test_blif_errors);
      ("blif constants", `Quick, test_blif_constants);
    ]


(* ------------------------------------------------------------------ *)
(* Netlist and clause pins: each LUT's table and fanins under both
   mapper configurations, and every clause of their encodings. *)

let mixer () =
  let h = ref 0 in
  (h, fun x -> h := ((!h * 1_000_003) lxor x) land 0x3FFF_FFFF_FFFF)

let netlist_hash nl =
  let h, mix = mixer () in
  let source = function
    | Lutmap.Netlist.Input i -> 3 * i
    | Lutmap.Netlist.Lut_out j -> (3 * j) + 1
    | Lutmap.Netlist.Const b -> if b then 5 else 2
  in
  mix nl.Lutmap.Netlist.num_inputs;
  Array.iter
    (fun l ->
      mix (Aig.Tt.num_vars l.Lutmap.Netlist.tt);
      mix (Aig.Tt.to_int l.Lutmap.Netlist.tt);
      Array.iter (fun s -> mix (source s)) l.Lutmap.Netlist.fanins)
    nl.Lutmap.Netlist.luts;
  Array.iter
    (fun (s, c) -> mix (source s); mix (Bool.to_int c))
    nl.Lutmap.Netlist.outputs;
  (Lutmap.Netlist.num_luts nl, !h)

let clauses_hash (f : Cnf.Formula.t) =
  let h, mix = mixer () in
  mix f.num_vars;
  Array.iter (fun c -> mix (Array.length c); Array.iter mix c) f.clauses;
  (Cnf.Formula.num_clauses f, !h)

let golden_netlists =
  [
    ("random 7 area luts", 32, 0x16766b8a87ab);
    ("random 7 area clauses", 134, 0x3de7e414fe2a);
    ("random 7 branching luts", 40, 0x1ef2f3842471);
    ("random 7 branching clauses", 139, 0x359c6fe3b18a);
    ("random 8 area luts", 31, 0x242678e51493);
    ("random 8 area clauses", 122, 0x12fe74d7f2d9);
    ("random 8 branching luts", 42, 0x9f08bfd2353);
    ("random 8 branching clauses", 134, 0x2c8e59baf631);
    ("I1 area luts", 465, 0x242aa2b470d5);
    ("I1 area clauses", 2555, 0xadc789dc334);
    ("I1 branching luts", 501, 0xb9e89b7bde2);
    ("I1 branching clauses", 2303, 0x15ca7db3c77);
    ("C8 area luts", 304, 0x3c148e786095);
    ("C8 area clauses", 1672, 0x33e07b836d27);
    ("C8 branching luts", 304, 0x2fccd640da07);
    ("C8 branching clauses", 1671, 0x3349f8f5eb1b);
  ]

let pin_inputs () =
  let suite = Workloads.Suites.i_suite () @ Workloads.Suites.c_suite () in
  let instance name =
    let _, inst = List.find (fun (n, _) -> String.sub n 0 2 = name) suite in
    (name, Synth.Balance.run (Eda4sat.Instance.to_aig inst))
  in
  [ ("random 7", random_graph ~seed:7 ~num_pis:16 ~num_ands:600);
    ("random 8", random_graph ~seed:8 ~num_pis:16 ~num_ands:600);
    instance "I1"; instance "C8" ]

let test_golden_netlists () =
  let pin key (n', h') =
    let _, n, h = List.find (fun (k, _, _) -> k = key) golden_netlists in
    check (key ^ " count") n n';
    check (key ^ " hash") h h'
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (cfg_name, config) ->
          let nl = Lutmap.Mapper.run ~config g in
          pin (Printf.sprintf "%s %s luts" name cfg_name) (netlist_hash nl);
          pin
            (Printf.sprintf "%s %s clauses" name cfg_name)
            (clauses_hash (Lutmap.Encode.encode nl).Lutmap.Encode.formula))
        [ ("area", Lutmap.Mapper.default_config);
          ("branching", Lutmap.Mapper.cost_customized_config) ])
    (pin_inputs ())

let suite =
  suite @ [ ("mapper/encode golden netlists", `Quick, test_golden_netlists) ]

(* The cost memo is filled by whichever domain asks first, and Mffc
   keeps its scratch per domain: rewriting and mapping the same graphs
   from two domains at once must give the sequential results. *)
let test_two_domains_match_sequential () =
  let graphs =
    List.init 12 (fun i ->
        random_graph ~seed:(300 + i) ~num_pis:16 ~num_ands:1500)
  in
  let work () =
    List.map
      (fun g ->
        let g' = Synth.Rewrite.run g in
        ( Aig.Graph.num_ands g',
          netlist_hash
            (Lutmap.Mapper.run
               ~config:Lutmap.Mapper.cost_customized_config g') ))
      graphs
  in
  let other = Domain.spawn work in
  let here = work () in
  let there = Domain.join other in
  let sequential = work () in
  check_bool "this domain" true (here = sequential);
  check_bool "other domain" true (there = sequential)

(* Wider tables are not memoized: the old memo keyed 6-input tables by
   [Tt.to_int], which drops bit 63, so these two shared an entry. *)
let test_cost_wide_tables () =
  let corners = Aig.Tt.of_int64 6 0x8000000000000001L in
  check "two corners" 2 (List.length (Aig.Isop.compute corners));
  ignore (Lutmap.Cost.branching corners);
  check "one minterm of 6" 7 (Lutmap.Cost.branching (Aig.Tt.of_int64 6 1L));
  for n = 0 to 4 do
    for bits = 0 to (1 lsl (1 lsl n)) - 1 do
      let f = Aig.Tt.of_int n bits in
      let raw =
        List.length (Aig.Isop.compute f)
        + List.length (Aig.Isop.compute (Aig.Tt.not_ f))
      in
      if Lutmap.Cost.branching f <> raw then
        Alcotest.failf "arity %d table %x: memo %d, ISOP %d" n bits
          (Lutmap.Cost.branching f) raw
    done
  done

let suite =
  suite
  @ [
      ("two domains map as one", `Quick, test_two_domains_match_sequential);
      ("cost of wide tables", `Quick, test_cost_wide_tables);
    ]
