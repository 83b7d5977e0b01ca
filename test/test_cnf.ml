(* Tests for the CNF substrate: formulas, DIMACS, Tseitin, cnf2aig. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Brute-force satisfiability by enumeration (small formulas only). *)
let brute_force f =
  let n = f.Cnf.Formula.num_vars in
  assert (n <= 20);
  let rec try_assignment m =
    if m >= 1 lsl n then None
    else
      let a = Array.init n (fun i -> m land (1 lsl i) <> 0) in
      if Cnf.Formula.eval f a then Some a else try_assignment (m + 1)
  in
  try_assignment 0

let test_formula_basics () =
  let f = Cnf.Formula.create ~num_vars:3 [ [| 1; -2 |]; [| 2; 3 |] ] in
  check "vars" 3 f.Cnf.Formula.num_vars;
  check "clauses" 2 (Cnf.Formula.num_clauses f);
  check "lits" 4 (Cnf.Formula.num_literals f);
  check_bool "eval sat" true (Cnf.Formula.eval f [| true; false; true |]);
  check_bool "eval unsat" false (Cnf.Formula.eval f [| false; true; false |]);
  check_bool "not trivially unsat" false (Cnf.Formula.is_trivially_unsat f);
  let g = Cnf.Formula.add_clauses f [ [||] ] in
  check_bool "empty clause detected" true (Cnf.Formula.is_trivially_unsat g)

let test_formula_validation () =
  Alcotest.check_raises "zero literal"
    (Invalid_argument "Formula: literal 0 out of range (1..2)") (fun () ->
      ignore (Cnf.Formula.create ~num_vars:2 [ [| 0 |] ]));
  Alcotest.check_raises "overflow literal"
    (Invalid_argument "Formula: literal 5 out of range (1..2)") (fun () ->
      ignore (Cnf.Formula.create ~num_vars:2 [ [| 5 |] ]))

let test_dimacs_roundtrip () =
  let f =
    Cnf.Formula.create ~num_vars:4 [ [| 1; -2; 3 |]; [| -4 |]; [| 2; 4 |] ]
  in
  let f' = Cnf.Dimacs.read_string (Cnf.Dimacs.write_string f) in
  check "vars" 4 f'.Cnf.Formula.num_vars;
  check "clauses" 3 (Cnf.Formula.num_clauses f');
  Alcotest.(check (array (array int)))
    "clause content" f.Cnf.Formula.clauses f'.Cnf.Formula.clauses

let test_dimacs_comments_and_layout () =
  let f =
    Cnf.Dimacs.read_string
      "c a comment\np cnf 3 2\nc another\n1 -2\n0\n2 3 0\n"
  in
  check "clauses" 2 (Cnf.Formula.num_clauses f);
  Alcotest.(check (array int)) "multi-line clause" [| 1; -2 |]
    f.Cnf.Formula.clauses.(0)

let test_dimacs_errors () =
  let expect_error s =
    try
      ignore (Cnf.Dimacs.read_string s);
      Alcotest.failf "expected parse error on %S" s
    with Cnf.Dimacs.Parse_error _ -> ()
  in
  expect_error "";
  expect_error "p cnf 2 1\n1 2\n";
  (* unterminated *)
  expect_error "p cnf 2 2\n1 0\n";
  (* count mismatch *)
  expect_error "p cnf 1 1\n7 0\n" (* out of range *)

(* ------------------------------------------------------------------ *)
(* Tseitin *)

let xor_graph () =
  let g = Aig.Graph.create ~num_pis:2 in
  let a = Aig.Graph.pi g 0 and b = Aig.Graph.pi g 1 in
  Aig.Graph.add_po g (Aig.Graph.xor_ g a b);
  g

let test_tseitin_xor () =
  let g = xor_graph () in
  let enc = Cnf.Tseitin.encode g in
  (* Satisfiable exactly on the two assignments with a <> b.  Check by
     brute force. *)
  (match brute_force enc.Cnf.Tseitin.formula with
   | None -> Alcotest.fail "xor=1 should be satisfiable"
   | Some m -> check_bool "a<>b" true (m.(0) <> m.(1)));
  (* Count satisfying input projections over all models. *)
  let f = enc.Cnf.Tseitin.formula in
  let n = f.Cnf.Formula.num_vars in
  let sat_inputs = Hashtbl.create 4 in
  for m = 0 to (1 lsl n) - 1 do
    let a = Array.init n (fun i -> m land (1 lsl i) <> 0) in
    if Cnf.Formula.eval f a then Hashtbl.replace sat_inputs (a.(0), a.(1)) ()
  done;
  check "two satisfying inputs" 2 (Hashtbl.length sat_inputs);
  check_bool "correct inputs" true
    (Hashtbl.mem sat_inputs (true, false) && Hashtbl.mem sat_inputs (false, true))

let test_tseitin_consistency_random () =
  (* For random circuits, any total assignment satisfying the clauses
     (ignoring output units) must agree with simulation. *)
  let rng = Aig.Rng.create 5 in
  for _trial = 1 to 20 do
    let g = Aig.Graph.create ~num_pis:4 in
    let lits = ref (Array.to_list (Array.init 4 (Aig.Graph.pi g))) in
    for _ = 1 to 12 do
      let arr = Array.of_list !lits in
      let a = arr.(Aig.Rng.int rng (Array.length arr))
      and b = arr.(Aig.Rng.int rng (Array.length arr)) in
      lits :=
        Aig.Graph.and_ g
          (Aig.Graph.lit_not_cond a (Aig.Rng.bool rng))
          (Aig.Graph.lit_not_cond b (Aig.Rng.bool rng))
        :: !lits
    done;
    (match !lits with l :: _ -> Aig.Graph.add_po g l | [] -> assert false);
    let enc = Cnf.Tseitin.encode ~assert_outputs:true g in
    match brute_force enc.Cnf.Tseitin.formula with
    | None ->
      (* Output must be constant false over all inputs. *)
      for m = 0 to 15 do
        let ins = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
        check_bool "really unsat" false (Aig.Sim.eval g ins).(0)
      done
    | Some model ->
      let ins = Array.init 4 (fun i -> model.(i)) in
      check_bool "model drives output" true (Aig.Sim.eval g ins).(0)
  done

let test_tseitin_constant_outputs () =
  let g = Aig.Graph.create ~num_pis:1 in
  Aig.Graph.add_po g Aig.Graph.const_true;
  let enc = Cnf.Tseitin.encode g in
  check_bool "const true sat" true
    (Option.is_some (brute_force enc.Cnf.Tseitin.formula));
  let g = Aig.Graph.create ~num_pis:1 in
  Aig.Graph.add_po g Aig.Graph.const_false;
  let enc = Cnf.Tseitin.encode g in
  check_bool "const false unsat" true
    (Cnf.Formula.is_trivially_unsat enc.Cnf.Tseitin.formula)

(* ------------------------------------------------------------------ *)
(* cnf2aig *)

let test_cnf2aig_recovers_tseitin () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  Aig.Graph.add_po g (Aig.Graph.and_ g (Aig.Graph.xor_ g a b) c);
  let enc = Cnf.Tseitin.encode g in
  let r = Cnf.Cnf2aig.run enc.Cnf.Tseitin.formula in
  check_bool "gates found" true (r.Cnf.Cnf2aig.gates_recovered > 0);
  check_bool "clauses absorbed" true (r.Cnf.Cnf2aig.clauses_absorbed > 0);
  (* Equisatisfiability: the recovered circuit's output must be
     drivable to 1 exactly when the CNF is satisfiable (here: yes), and
     satisfying inputs must match. *)
  let g' = r.Cnf.Cnf2aig.graph in
  let enc' = Cnf.Tseitin.encode g' in
  match brute_force enc'.Cnf.Tseitin.formula with
  | None -> Alcotest.fail "recovered circuit should be satisfiable"
  | Some _ -> ()

let test_cnf2aig_pure_constraints () =
  (* A raw CNF with no gate structure: every clause becomes a
     constraint cone and every variable a PI. *)
  let f =
    Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |]; [| -2; -3 |] ]
  in
  let r = Cnf.Cnf2aig.run f in
  check "no gates" 0 r.Cnf.Cnf2aig.gates_recovered;
  check "pis = vars" 3 (Aig.Graph.num_pis r.Cnf.Cnf2aig.graph);
  (* Circuit output on assignment = formula evaluation. *)
  for m = 0 to 7 do
    let a = Array.init 3 (fun i -> m land (1 lsl i) <> 0) in
    check_bool "agrees with eval" (Cnf.Formula.eval f a)
      (Aig.Sim.eval r.Cnf.Cnf2aig.graph a).(0)
  done

let test_cnf2aig_equisat_random =
  QCheck.Test.make ~name:"cnf2aig: equisatisfiable on random CNFs" ~count:60
    QCheck.(triple (int_bound 1000000) (int_range 3 8) (int_range 3 14))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Aig.Rng.int rng 3 in
            Array.init len (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = Cnf.Formula.create ~num_vars:nvars clauses in
      let r = Cnf.Cnf2aig.run f in
      let enc = Cnf.Tseitin.encode r.Cnf.Cnf2aig.graph in
      let orig_sat = Option.is_some (brute_force f) in
      (* The recovered circuit's encoding can exceed brute-force reach
         (OR cones add auxiliaries), so use the CDCL solver here. *)
      let recovered_sat =
        match fst (Sat.Solver.solve enc.Cnf.Tseitin.formula) with
        | Sat.Solver.Sat _ -> true
        | Sat.Solver.Unsat -> false
        | Sat.Solver.Unknown -> not orig_sat (* force a failure *)
      in
      orig_sat = recovered_sat)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  [
    ("formula basics", `Quick, test_formula_basics);
    ("formula validation", `Quick, test_formula_validation);
    ("dimacs roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs comments", `Quick, test_dimacs_comments_and_layout);
    ("dimacs errors", `Quick, test_dimacs_errors);
    ("tseitin xor", `Quick, test_tseitin_xor);
    ("tseitin random consistency", `Quick, test_tseitin_consistency_random);
    ("tseitin constant outputs", `Quick, test_tseitin_constant_outputs);
    ("cnf2aig recovers tseitin gates", `Quick, test_cnf2aig_recovers_tseitin);
    ("cnf2aig pure constraints", `Quick, test_cnf2aig_pure_constraints);
  ]
  @ qsuite [ test_cnf2aig_equisat_random ]

(* ------------------------------------------------------------------ *)
(* Advanced cnf2aig (§4.6 future work: order-independent recovery) *)

let shuffle_vars ~seed f =
  let rng = Aig.Rng.create seed in
  let n = f.Cnf.Formula.num_vars in
  let perm = Array.init n (fun i -> i + 1) in
  Aig.Rng.shuffle rng perm;
  Cnf.Formula.map_vars f ~f:(fun v -> perm.(v - 1)) ~num_vars:n

let test_cnf2aig_advanced_survives_renumbering () =
  let g = Aig.Graph.create ~num_pis:3 in
  let a = Aig.Graph.pi g 0
  and b = Aig.Graph.pi g 1
  and c = Aig.Graph.pi g 2 in
  Aig.Graph.add_po g (Aig.Graph.and_ g (Aig.Graph.xor_ g a b) c);
  let enc = Cnf.Tseitin.encode g in
  (* Reverse the variable numbering: gate outputs now have SMALLER
     indices than their inputs, defeating the basic heuristic. *)
  let n = enc.Cnf.Tseitin.formula.Cnf.Formula.num_vars in
  let reversed =
    Cnf.Formula.map_vars enc.Cnf.Tseitin.formula
      ~f:(fun v -> n + 1 - v)
      ~num_vars:n
  in
  let basic = Cnf.Cnf2aig.run reversed in
  let adv = Cnf.Cnf2aig.run ~advanced:true reversed in
  check_bool "advanced recovers more gates" true
    (adv.Cnf.Cnf2aig.gates_recovered > basic.Cnf.Cnf2aig.gates_recovered);
  check_bool "advanced finds all gates" true
    (adv.Cnf.Cnf2aig.gates_recovered >= 2)

let test_cnf2aig_advanced_equisat =
  QCheck.Test.make ~name:"cnf2aig advanced: equisatisfiable after shuffling"
    ~count:60
    QCheck.(triple (int_bound 1000000) (int_range 3 7) (int_range 3 12))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Aig.Rng.int rng 3 in
            Array.init len (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = shuffle_vars ~seed (Cnf.Formula.create ~num_vars:nvars clauses) in
      let r = Cnf.Cnf2aig.run ~advanced:true f in
      let enc = Cnf.Tseitin.encode r.Cnf.Cnf2aig.graph in
      let orig_sat = Option.is_some (brute_force f) in
      let recovered_sat =
        match fst (Sat.Solver.solve enc.Cnf.Tseitin.formula) with
        | Sat.Solver.Sat _ -> true
        | Sat.Solver.Unsat -> false
        | Sat.Solver.Unknown -> not orig_sat
      in
      orig_sat = recovered_sat)

let test_cnf2aig_advanced_tseitin_roundtrip =
  QCheck.Test.make
    ~name:"cnf2aig advanced: recovers shuffled Tseitin circuits fully"
    ~count:40 (QCheck.int_bound 1000000) (fun seed ->
      let rng = Aig.Rng.create seed in
      let g = Aig.Graph.create ~num_pis:4 in
      let lits = ref (Array.to_list (Array.init 4 (Aig.Graph.pi g))) in
      for _ = 1 to 10 do
        let arr = Array.of_list !lits in
        let pick () =
          Aig.Graph.lit_not_cond
            arr.(Aig.Rng.int rng (Array.length arr))
            (Aig.Rng.bool rng)
        in
        lits := Aig.Graph.and_ g (pick ()) (pick ()) :: !lits
      done;
      (match !lits with l :: _ -> Aig.Graph.add_po g l | [] -> assert false);
      let f =
        shuffle_vars ~seed:(seed + 1)
          (Cnf.Tseitin.encode g).Cnf.Tseitin.formula
      in
      (* The greedy advanced selector may occasionally sacrifice a gate
         when overlapping candidates conflict, but it must never do
         worse than the variable-order heuristic on shuffled input. *)
      let basic = Cnf.Cnf2aig.run f in
      let adv = Cnf.Cnf2aig.run ~advanced:true f in
      adv.Cnf.Cnf2aig.gates_recovered >= basic.Cnf.Cnf2aig.gates_recovered
      (* When the PO cone really contains gates (>= 3 Tseitin clauses
         plus the output unit), the advanced mode must find some. *)
      && (Cnf.Formula.num_clauses f < 4
          || adv.Cnf.Cnf2aig.gates_recovered > 0))

let suite =
  suite
  @ [
      ("cnf2aig advanced survives renumbering", `Quick,
       test_cnf2aig_advanced_survives_renumbering);
    ]
  @ qsuite
      [ test_cnf2aig_advanced_equisat; test_cnf2aig_advanced_tseitin_roundtrip ]

(* ------------------------------------------------------------------ *)
(* CNF-level preprocessing (SatELite-style) *)

let test_simplify_units_and_pures () =
  (* x1 unit forces x2 via (x1 -> x2); x3 appears only positively. *)
  let f =
    Cnf.Formula.create ~num_vars:3 [ [| 1 |]; [| -1; 2 |]; [| 3; 2 |] ]
  in
  match Cnf.Simplify.run f with
  | Cnf.Simplify.Proved_unsat -> Alcotest.fail "satisfiable"
  | Cnf.Simplify.Simplified s ->
    let f' = Cnf.Simplify.formula s in
    check "everything removed" 0 (Cnf.Formula.num_clauses f');
    (* Reconstruction must produce a model of the original. *)
    let m = Cnf.Simplify.reconstruct s [| false; false; false |] in
    check_bool "reconstructed model valid" true (Cnf.Formula.eval f m)

let test_simplify_detects_unsat () =
  let f = Cnf.Formula.create ~num_vars:1 [ [| 1 |]; [| -1 |] ] in
  (match Cnf.Simplify.run f with
   | Cnf.Simplify.Proved_unsat -> ()
   | Cnf.Simplify.Simplified _ -> Alcotest.fail "should refute by UP");
  let f = Cnf.Formula.create ~num_vars:2 [ [||] ] in
  match Cnf.Simplify.run f with
  | Cnf.Simplify.Proved_unsat -> ()
  | Cnf.Simplify.Simplified _ -> Alcotest.fail "empty clause"

let test_simplify_subsumption () =
  (* (1 2) subsumes (1 2 3); disable BVE-ish effects by keeping vars in
     many clauses. *)
  let f =
    Cnf.Formula.create ~num_vars:3
      [ [| 1; 2 |]; [| 1; 2; 3 |]; [| -1; -2 |]; [| -1; 2; -3 |];
        [| 1; -2; 3 |]; [| -1; 2; 3 |] ]
  in
  match Cnf.Simplify.run ~config:{ Cnf.Simplify.default_config with
                                   Cnf.Simplify.rounds = 1 } f with
  | Cnf.Simplify.Proved_unsat -> Alcotest.fail "satisfiable"
  | Cnf.Simplify.Simplified s ->
    let f' = Cnf.Simplify.formula s in
    check_bool "clause count reduced" true
      (Cnf.Formula.num_clauses f' < Cnf.Formula.num_clauses f)

let prop_simplify_equisat_and_reconstruct =
  QCheck.Test.make
    ~name:"simplify: equisatisfiable, models reconstruct" ~count:300
    QCheck.(triple (int_bound 10000000) (int_range 2 10) (int_range 1 35))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun _ ->
            let len = 1 + Aig.Rng.int rng 4 in
            Array.init len (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = Cnf.Formula.create ~num_vars:nvars clauses in
      let orig_sat = Option.is_some (brute_force f) in
      match Cnf.Simplify.run f with
      | Cnf.Simplify.Proved_unsat -> not orig_sat
      | Cnf.Simplify.Simplified s -> (
        let f' = Cnf.Simplify.formula s in
        match fst (Sat.Solver.solve f') with
        | Sat.Solver.Sat m ->
          orig_sat && Cnf.Formula.eval f (Cnf.Simplify.reconstruct s m)
        | Sat.Solver.Unsat -> not orig_sat
        | Sat.Solver.Unknown -> false))

(* php(4,3) built inline (test_cnf must not depend on workloads). *)
let inline_php43 () =
  let v p h = (p * 3) + h + 1 in
  let at_least = List.init 4 (fun p -> Array.init 3 (fun h -> v p h)) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 -> if p2 > p1 then Some [| -v p1 h; -v p2 h |] else None)
              (List.init 4 Fun.id))
          (List.init 4 Fun.id))
      (List.init 3 Fun.id)
  in
  Cnf.Formula.create ~num_vars:12 (at_least @ at_most)

let test_simplify_php_shrinks () =
  (* BVE + subsumption must not blow the instance up. *)
  let f = inline_php43 () in
  match Cnf.Simplify.run f with
  | Cnf.Simplify.Proved_unsat -> ()
  | Cnf.Simplify.Simplified s ->
    check_bool "literals not increased" true
      (Cnf.Formula.num_literals (Cnf.Simplify.formula s)
       <= Cnf.Formula.num_literals f)

(* --- proof-carrying simplification ------------------------------- *)

let prop_simplify_proof_differential =
  (* Differential fuzz of the full chain: simplify (logging) -> solve
     (logging into the same recorder) -> reconstruct.  UNSAT cases must
     leave one sealed DRAT stream that checks against the ORIGINAL
     formula; SAT models must lift back and satisfy it. *)
  QCheck.Test.make
    ~name:"simplify+solve: one DRAT stream, checked against the original"
    ~count:300
    QCheck.(triple (int_bound 10000000) (int_range 3 12) (int_range 2 45))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun i ->
            (* A sprinkle of unit clauses exercises the unit-assignment
               shrink/delete logging; short clauses over few variables
               drive BVE and the pure-literal rule. *)
            let len = if i mod 7 = 0 then 1 else 1 + Aig.Rng.int rng 3 in
            Array.init len (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = Cnf.Formula.create ~num_vars:nvars clauses in
      let proof = Sat.Proof.create () in
      match Cnf.Simplify.run ~proof f with
      | Cnf.Simplify.Proved_unsat ->
        Sat.Proof.sealed proof && Sat.Proof.check f proof
      | Cnf.Simplify.Simplified s -> (
        match fst (Sat.Solver.solve ~proof (Cnf.Simplify.formula s)) with
        | Sat.Solver.Sat m ->
          Cnf.Formula.eval f (Cnf.Simplify.reconstruct s m)
        | Sat.Solver.Unsat ->
          Sat.Proof.sealed proof && Sat.Proof.check f proof
        | Sat.Solver.Unknown -> false))

let test_simplify_proof_unit_chain () =
  (* Refuted by unit propagation alone: every clause is rewritten by
     unit assignment, so the two-phase Add/Delete ordering is what
     keeps the stream checkable. *)
  let f =
    Cnf.Formula.create ~num_vars:4
      [ [| 1 |]; [| -1; 2 |]; [| -2; 3 |]; [| -3; 4 |]; [| -4; -1 |] ]
  in
  let proof = Sat.Proof.create () in
  (match Cnf.Simplify.run ~proof f with
   | Cnf.Simplify.Proved_unsat -> ()
   | Cnf.Simplify.Simplified _ -> Alcotest.fail "unit chain should refute");
  check_bool "sealed by the empty clause" true (Sat.Proof.sealed proof);
  check_bool "unit-only proof checks" true (Sat.Proof.check f proof)

let test_simplify_proof_php () =
  (* Pure literals + BVE fire on php(4,3); the solver finishes the
     refutation.  The combined stream must check against the
     pre-simplification formula. *)
  let f = inline_php43 () in
  let proof = Sat.Proof.create () in
  (match Cnf.Simplify.run ~proof f with
   | Cnf.Simplify.Proved_unsat -> ()
   | Cnf.Simplify.Simplified s -> (
     match fst (Sat.Solver.solve ~proof (Cnf.Simplify.formula s)) with
     | Sat.Solver.Unsat -> ()
     | _ -> Alcotest.fail "php(4,3) is unsat"));
  check_bool "proof sealed" true (Sat.Proof.sealed proof);
  check_bool "combined proof checks against original" true
    (Sat.Proof.check f proof)

let suite =
  suite
  @ [
      ("simplify units and pures", `Quick, test_simplify_units_and_pures);
      ("simplify detects unsat", `Quick, test_simplify_detects_unsat);
      ("simplify subsumption", `Quick, test_simplify_subsumption);
      ("simplify php", `Quick, test_simplify_php_shrinks);
      ("simplify proof: unit-only refutation", `Quick,
       test_simplify_proof_unit_chain);
      ("simplify proof: pures+BVE then solver", `Quick,
       test_simplify_proof_php);
    ]
  @ qsuite
      [ prop_simplify_equisat_and_reconstruct;
        prop_simplify_proof_differential ]

(* ------------------------------------------------------------------ *)
(* Plaisted-Greenbaum encoding *)

let test_pg_smaller_and_equisat =
  QCheck.Test.make
    ~name:"tseitin: Plaisted-Greenbaum is smaller and equisatisfiable"
    ~count:100 (QCheck.int_bound 1000000) (fun seed ->
      let rng = Aig.Rng.create seed in
      let g = Aig.Graph.create ~num_pis:4 in
      let lits = ref (Array.to_list (Array.init 4 (Aig.Graph.pi g))) in
      for _ = 1 to 14 do
        let arr = Array.of_list !lits in
        let pick () =
          Aig.Graph.lit_not_cond
            arr.(Aig.Rng.int rng (Array.length arr))
            (Aig.Rng.bool rng)
        in
        lits := Aig.Graph.and_ g (pick ()) (pick ()) :: !lits
      done;
      (match !lits with
       | x :: _ -> Aig.Graph.add_po g x
       | [] -> assert false);
      let full = (Cnf.Tseitin.encode g).Cnf.Tseitin.formula in
      let pg =
        (Cnf.Tseitin.encode ~plaisted_greenbaum:true g).Cnf.Tseitin.formula
      in
      Cnf.Formula.num_clauses pg <= Cnf.Formula.num_clauses full
      &&
      let sat_full =
        match fst (Sat.Solver.solve full) with
        | Sat.Solver.Sat _ -> true
        | _ -> false
      in
      match fst (Sat.Solver.solve pg) with
      | Sat.Solver.Sat m ->
        (* The input projection of a PG model must drive the output. *)
        sat_full
        && (Aig.Sim.eval g (Array.init 4 (fun i -> m.(i)))).(0)
      | Sat.Solver.Unsat -> not sat_full
      | Sat.Solver.Unknown -> false)

let test_pg_drops_onset_clauses () =
  (* A single AND output: the (o | ~a | ~b) clause is unnecessary. *)
  let g = Aig.Graph.create ~num_pis:2 in
  Aig.Graph.add_po g (Aig.Graph.and_ g (Aig.Graph.pi g 0) (Aig.Graph.pi g 1));
  let full = (Cnf.Tseitin.encode g).Cnf.Tseitin.formula in
  let pg =
    (Cnf.Tseitin.encode ~plaisted_greenbaum:true g).Cnf.Tseitin.formula
  in
  check "full has 4 clauses" 4 (Cnf.Formula.num_clauses full);
  check "pg has 3 clauses" 3 (Cnf.Formula.num_clauses pg)

let suite =
  suite
  @ [ ("pg drops one-sided clauses", `Quick, test_pg_drops_onset_clauses) ]
  @ qsuite [ test_pg_smaller_and_equisat ]

(* --- Fingerprint: canonical-form invariance and collision smoke ------ *)

let fp f = Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f)

let test_fingerprint_invariance () =
  let a =
    Cnf.Formula.create ~num_vars:4 [ [| 1; -2; 3 |]; [| -4 |]; [| 2; 4 |] ]
  in
  (* Clause order, literal order within a clause, duplicated literals
     and duplicated clauses all wash out in the canonical form. *)
  let b =
    Cnf.Formula.create ~num_vars:4
      [ [| 2; 4 |]; [| 3; 1; -2; 1 |]; [| -4; -4 |]; [| 2; 4 |] ]
  in
  check_bool "canonically equal" true (Cnf.Fingerprint.equal (fp a) (fp b));
  check "compare" 0 (Cnf.Fingerprint.compare (fp a) (fp b));
  check "hash" (Cnf.Fingerprint.hash (fp a)) (Cnf.Fingerprint.hash (fp b));
  Alcotest.(check string)
    "hex" (Cnf.Fingerprint.to_hex (fp a)) (Cnf.Fingerprint.to_hex (fp b));
  check "hex width" 32 (String.length (Cnf.Fingerprint.to_hex (fp a)))

let test_fingerprint_tautologies_dropped () =
  let a = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |] ] in
  let b = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| 3; -3; 1 |] ] in
  check_bool "tautology invisible" true
    (Cnf.Fingerprint.equal (fp a) (fp b))

let test_fingerprint_distinguishes () =
  let a = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |] ] in
  (* Same clauses, different variable universe: models differ, so the
     fingerprint must too. *)
  let b = Cnf.Formula.create ~num_vars:4 [ [| 1; 2 |] ] in
  let c = Cnf.Formula.create ~num_vars:3 [ [| 1; -2 |] ] in
  check_bool "num_vars matters" false (Cnf.Fingerprint.equal (fp a) (fp b));
  check_bool "polarity matters" false (Cnf.Fingerprint.equal (fp a) (fp c))

let test_fingerprint_collision_smoke () =
  (* Hash a few thousand structurally distinct formulas and demand
     zero collisions across the 128-bit pair. *)
  let rng = Aig.Rng.create 20260806 in
  let tbl = Hashtbl.create 4096 in
  let canon = Hashtbl.create 4096 in
  for i = 0 to 2999 do
    let nvars = 3 + Aig.Rng.int rng 12 in
    let clauses =
      List.init
        (1 + Aig.Rng.int rng 9)
        (fun _ ->
          Array.init
            (1 + Aig.Rng.int rng 4)
            (fun _ ->
              let v = 1 + Aig.Rng.int rng nvars in
              if Aig.Rng.bool rng then v else -v))
    in
    let f = Cnf.Formula.create ~num_vars:nvars clauses in
    (* Canonical key mirroring the fingerprint's normal form, so
       canonically-equal duplicates are expected hash-equal. *)
    let key =
      ( nvars,
        List.sort_uniq compare
          (List.filter_map
             (fun c ->
               let l = List.sort_uniq compare (Array.to_list c) in
               if List.exists (fun x -> List.mem (-x) l) l then None
               else Some l)
             clauses) )
    in
    let h = fp f in
    (match Hashtbl.find_opt tbl h with
     | Some k when k <> key ->
       Alcotest.failf "collision at case %d: %s" i (Cnf.Fingerprint.to_hex h)
     | _ -> ());
    Hashtbl.replace tbl h key;
    Hashtbl.replace canon key h
  done;
  check "distinct fingerprints = distinct canonical forms"
    (Hashtbl.length canon) (Hashtbl.length tbl)

let suite =
  suite
  @ [
      ("fingerprint invariance", `Quick, test_fingerprint_invariance);
      ("fingerprint drops tautologies", `Quick,
       test_fingerprint_tautologies_dropped);
      ("fingerprint distinguishes", `Quick, test_fingerprint_distinguishes);
      ("fingerprint collision smoke", `Quick,
       test_fingerprint_collision_smoke);
    ]

(* --- Flat CSR store and the zero-copy DIMACS parser ------------------ *)

let test_flat_roundtrip () =
  let f =
    Cnf.Formula.create ~num_vars:4
      [ [| 1; -2; 3 |]; [| -4 |]; [||]; [| 2; 4 |] ]
  in
  let fl = Cnf.Flat.of_formula f in
  check "vars" 4 (fl.Cnf.Flat.num_vars);
  check "clauses" 4 (Cnf.Flat.num_clauses fl);
  check "lits" 6 (Cnf.Flat.num_literals fl);
  check "clause sizes" 0 (Cnf.Flat.clause_size fl 2);
  let f' = Cnf.Flat.to_formula fl in
  Alcotest.(check (array (array int)))
    "round-trips clause-exact" f.Cnf.Formula.clauses f'.Cnf.Formula.clauses;
  (* eval agrees with the Formula view on every assignment of 4 vars *)
  for m = 0 to 15 do
    let a = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
    check_bool "eval agrees" (Cnf.Formula.eval f a) (Cnf.Flat.eval fl a)
  done

(* Legacy string reader vs. the flat cursor parser: identical formulas
   on every accepted input, identical exceptions (constructor AND
   message) on every rejected one. *)
let flat_vs_legacy s =
  let legacy =
    match Cnf.Dimacs.read_string s with
    | f -> Ok f
    | exception Cnf.Dimacs.Parse_error m -> Error m
  in
  let flat =
    match Cnf.Dimacs.read_flat_string s with
    | fl -> Ok (Cnf.Flat.to_formula fl)
    | exception Cnf.Dimacs.Parse_error m -> Error m
  in
  match (legacy, flat) with
  | Error a, Error b ->
    Alcotest.(check string) ("error text for " ^ String.escaped s) a b
  | Ok a, Ok b ->
    check ("num_vars for " ^ String.escaped s) a.Cnf.Formula.num_vars
      b.Cnf.Formula.num_vars;
    Alcotest.(check (array (array int)))
      ("clauses for " ^ String.escaped s)
      a.Cnf.Formula.clauses b.Cnf.Formula.clauses
  | Ok _, Error m ->
    Alcotest.failf "flat rejected %S (%s), legacy accepted" s m
  | Error m, Ok _ ->
    Alcotest.failf "legacy rejected %S (%s), flat accepted" s m

let test_flat_parser_edge_cases () =
  List.iter flat_vs_legacy
    [
      (* accepted layouts *)
      "p cnf 3 2\n1 -2\n0\n2 3 0\n";
      "c head\np cnf 2 1\nc mid\n1 2 0\nc tail\n";
      "p cnf 2 1\r\n1 2 0\r\n";                    (* CRLF *)
      "p cnf 2 1\n1 2 0";                          (* no trailing newline *)
      "p cnf 2 1\n+1 +2 0\n";                      (* '+' signs *)
      "p cnf 3 2\n1\n-2\n0 3 0\n";                 (* clauses span lines *)
      "p cnf 2 1\n1 2 0\n% trailer\n0\n";          (* %-style trailer *)
      "p    cnf   2   1  \n 1 2 0\n";              (* elastic whitespace *)
      "p cnf 0 0\n";                               (* empty formula *)
      "p cnf 2 2\n1 0 0\n";                        (* empty clause *)
      (* rejected layouts — messages must match byte-for-byte *)
      "";
      "c only a comment\n";
      "p cnf 2 1\n1 2\n";                          (* unterminated *)
      "p cnf 2 2\n1 0\n";                          (* count mismatch *)
      "p cnf 1 1\n7 0\n";                          (* literal out of range *)
      "p cnf 1 1\n-7 0\n";
      "p cnf -1 0\n";                              (* negative num_vars *)
      "p cnf 2\n";                                 (* short p-line *)
      "q cnf 2 1\n1 2 0\n";                        (* bad header *)
      "p cnf 2 1\n1 x 0\n";                        (* bad token *)
      "p cnf 2 1\n1 99999999999999999999 0\n";     (* overflow literal *)
      "p cnf 2 1\n1 - 2 0\n";                      (* bare sign *)
      "p cnf 2 1\n1 2 0\ntrailing junk\n";
    ]

let prop_flat_differential =
  QCheck.Test.make ~name:"dimacs: flat parser == legacy parser" ~count:500
    QCheck.(triple (int_bound 10000000) (int_range 1 12) (int_range 0 30))
    (fun (seed, nvars, nclauses) ->
      let rng = Aig.Rng.create seed in
      let clauses =
        List.init nclauses (fun _ ->
            Array.init (Aig.Rng.int rng 5) (fun _ ->
                let v = 1 + Aig.Rng.int rng nvars in
                if Aig.Rng.bool rng then v else -v))
      in
      let f = Cnf.Formula.create ~num_vars:nvars clauses in
      let s = Cnf.Dimacs.write_string f in
      (* Random textual perturbations that must not change the parse:
         comment insertion, CRLF line ends, trailing-newline removal. *)
      let s =
        match Aig.Rng.int rng 4 with
        | 0 -> "c prefix\n" ^ s
        | 1 ->
          String.concat "\r\n" (String.split_on_char '\n' s)
        | 2 ->
          if String.length s > 0 && s.[String.length s - 1] = '\n' then
            String.sub s 0 (String.length s - 1)
          else s
        | _ -> s
      in
      let a = Cnf.Dimacs.read_string s in
      let b = Cnf.Flat.to_formula (Cnf.Dimacs.read_flat_string s) in
      a.Cnf.Formula.num_vars = b.Cnf.Formula.num_vars
      && a.Cnf.Formula.clauses = b.Cnf.Formula.clauses
      (* and the streaming fingerprint agrees with the materialized one *)
      && Cnf.Fingerprint.equal
           (Cnf.Fingerprint.of_flat (Cnf.Dimacs.read_flat_string s))
           (Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula a)))

let test_flat_mmap_file () =
  let f =
    Cnf.Formula.create ~num_vars:5
      [ [| 1; -2; 3 |]; [| -4 |]; [| 2; 4; 5 |]; [| -5; 1 |] ]
  in
  let path = Filename.temp_file "eda4sat_mmap" ".cnf" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cnf.Dimacs.write_file f path;
      let fl = Cnf.Dimacs.read_flat_file path in
      Alcotest.(check (array (array int)))
        "mmap parse round-trips"
        f.Cnf.Formula.clauses
        (Cnf.Flat.to_formula fl).Cnf.Formula.clauses;
      Alcotest.(check (array (array int)))
        "read_file goes through the same path"
        f.Cnf.Formula.clauses
        (Cnf.Dimacs.read_file path).Cnf.Formula.clauses;
      (* A truncated file must answer the same error as the string
         parser on the same bytes. *)
      let full = Cnf.Dimacs.write_string f in
      let cut = String.sub full 0 (String.length full - 3) in
      let oc = open_out path in
      output_string oc cut;
      close_out oc;
      let from_string =
        match Cnf.Dimacs.read_string cut with
        | _ -> Alcotest.fail "truncated input accepted"
        | exception Cnf.Dimacs.Parse_error m -> m
      in
      (match Cnf.Dimacs.read_flat_file path with
       | _ -> Alcotest.fail "truncated file accepted"
       | exception Cnf.Dimacs.Parse_error m ->
         Alcotest.(check string) "same error via mmap" from_string m));
  (* missing files still raise Sys_error, like the channel reader *)
  match Cnf.Dimacs.read_flat_file "/nonexistent/eda4sat.cnf" with
  | _ -> Alcotest.fail "missing file accepted"
  | exception Sys_error _ -> ()

let test_flat_fingerprint_collision_smoke () =
  (* The of_flat collision smoke twin: same 3000-case generator seeded
     differently, hashing through the CSR path, zero collisions. *)
  let rng = Aig.Rng.create 20260806 in
  let tbl = Hashtbl.create 4096 in
  for i = 0 to 2999 do
    let nvars = 3 + Aig.Rng.int rng 12 in
    let clauses =
      List.init
        (1 + Aig.Rng.int rng 9)
        (fun _ ->
          Array.init
            (1 + Aig.Rng.int rng 4)
            (fun _ ->
              let v = 1 + Aig.Rng.int rng nvars in
              if Aig.Rng.bool rng then v else -v))
    in
    let f = Cnf.Formula.create ~num_vars:nvars clauses in
    let key =
      ( nvars,
        List.sort_uniq compare
          (List.filter_map
             (fun c ->
               let l = List.sort_uniq compare (Array.to_list c) in
               if List.exists (fun x -> List.mem (-x) l) l then None
               else Some l)
             clauses) )
    in
    let h = Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f) in
    (match Hashtbl.find_opt tbl h with
     | Some k when k <> key ->
       Alcotest.failf "of_flat collision at case %d: %s" i
         (Cnf.Fingerprint.to_hex h)
     | _ -> ());
    Hashtbl.replace tbl h key
  done

let suite =
  suite
  @ [
      ("flat CSR round-trip", `Quick, test_flat_roundtrip);
      ("flat parser edge cases", `Quick, test_flat_parser_edge_cases);
      ("flat mmap file reader", `Quick, test_flat_mmap_file);
      ("of_flat collision smoke", `Quick,
       test_flat_fingerprint_collision_smoke);
    ]
  @ qsuite [ prop_flat_differential ]
