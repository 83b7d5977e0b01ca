(* Tests for the CDCL solver: correctness against brute force, known
   families, limits and counters. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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

let solve f = fst (Sat.Solver.solve f)

let test_trivial () =
  let empty = Cnf.Formula.create ~num_vars:0 [] in
  (match solve empty with
   | Sat.Solver.Sat _ -> ()
   | _ -> Alcotest.fail "empty formula is satisfiable");
  let unit_sat = Cnf.Formula.create ~num_vars:1 [ [| 1 |] ] in
  (match solve unit_sat with
   | Sat.Solver.Sat m -> check_bool "x=true" true m.(0)
   | _ -> Alcotest.fail "unit clause satisfiable");
  let contra = Cnf.Formula.create ~num_vars:1 [ [| 1 |]; [| -1 |] ] in
  (match solve contra with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "x & ~x unsatisfiable");
  let empty_clause = Cnf.Formula.create ~num_vars:1 [ [||] ] in
  match solve empty_clause with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "empty clause unsatisfiable"

let test_tautology_and_duplicates () =
  let f =
    Cnf.Formula.create ~num_vars:2 [ [| 1; -1 |]; [| 2; 2 |]; [| -2; -2; 1 |] ]
  in
  match solve f with
  | Sat.Solver.Sat m ->
    check_bool "model satisfies" true (Cnf.Formula.eval f m)
  | _ -> Alcotest.fail "satisfiable"

let pigeonhole ~pigeons ~holes =
  (* Variable p*holes + h + 1: pigeon p sits in hole h. *)
  let v p h = (p * holes) + h + 1 in
  let at_least =
    List.init pigeons (fun p -> Array.init holes (fun h -> v p h))
  in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [| -v p1 h; -v p2 h |] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  Cnf.Formula.create ~num_vars:(pigeons * holes) (at_least @ at_most)

let test_pigeonhole () =
  (match solve (pigeonhole ~pigeons:4 ~holes:3) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(4,3) is unsatisfiable");
  (match solve (pigeonhole ~pigeons:5 ~holes:4) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(5,4) is unsatisfiable");
  match solve (pigeonhole ~pigeons:3 ~holes:3) with
  | Sat.Solver.Sat m ->
    check_bool "valid assignment" true
      (Cnf.Formula.eval (pigeonhole ~pigeons:3 ~holes:3) m)
  | _ -> Alcotest.fail "php(3,3) is satisfiable"

let test_limits () =
  let hard = pigeonhole ~pigeons:8 ~holes:7 in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_conflicts = Some 10 }
  in
  (match Sat.Solver.solve ~limits hard with
   | Sat.Solver.Unknown, st ->
     check_bool "stopped near limit" true (st.Sat.Solver.conflicts <= 12)
   | (Sat.Solver.Sat _ | Sat.Solver.Unsat), _ ->
     Alcotest.fail "php(8,7) should exceed 10 conflicts");
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_decisions = Some 5 }
  in
  match Sat.Solver.solve ~limits hard with
  | Sat.Solver.Unknown, _ -> ()
  | (Sat.Solver.Sat _ | Sat.Solver.Unsat), _ ->
    Alcotest.fail "php(8,7) should exceed 5 decisions"

let test_decision_counter () =
  (* A chain of implications: one decision should suffice. *)
  let n = 20 in
  let clauses =
    List.init (n - 1) (fun i -> [| -(i + 1); i + 2 |])
  in
  let f = Cnf.Formula.create ~num_vars:n clauses in
  let result, st = Sat.Solver.solve f in
  (match result with
   | Sat.Solver.Sat m -> check_bool "model" true (Cnf.Formula.eval f m)
   | _ -> Alcotest.fail "chain satisfiable");
  check_bool "few decisions" true (st.Sat.Solver.decisions <= n);
  check_bool "propagations happened" true (st.Sat.Solver.propagations > 0)

let random_formula seed nvars nclauses maxlen =
  let rng = Aig.Rng.create seed in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Aig.Rng.int rng maxlen in
        Array.init len (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v))
  in
  Cnf.Formula.create ~num_vars:nvars clauses

let prop_agrees_with_brute_force =
  QCheck.Test.make ~name:"solver: agrees with brute force" ~count:300
    QCheck.(
      quad (int_bound 10000000) (int_range 2 10) (int_range 1 40)
        (int_range 1 4))
    (fun (seed, nvars, nclauses, maxlen) ->
      let f = random_formula seed nvars nclauses maxlen in
      let expected = Option.is_some (brute_force f) in
      match solve f with
      | Sat.Solver.Sat m -> expected && Cnf.Formula.eval f m
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown -> false)

let prop_models_always_valid =
  QCheck.Test.make ~name:"solver: returned models satisfy the formula"
    ~count:100
    QCheck.(pair (int_bound 10000000) (int_range 10 30))
    (fun (seed, nvars) ->
      (* Larger instances near the 4.26 clause ratio. *)
      let f = random_formula seed nvars (int_of_float (4.2 *. float_of_int nvars)) 3 in
      match solve f with
      | Sat.Solver.Sat m -> Cnf.Formula.eval f m
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> true)

let test_xor_chain_unsat () =
  (* x1 xor x2 = 1, x2 xor x3 = 1, ..., xn xor x1 = 1 with odd n is
     unsatisfiable. *)
  let n = 7 in
  let xor_clauses a b =
    (* a xor b = 1 <=> (a | b) & (~a | ~b) *)
    [ [| a; b |]; [| -a; -b |] ]
  in
  let clauses =
    List.concat
      (List.init n (fun i -> xor_clauses (i + 1) (((i + 1) mod n) + 1)))
  in
  let f = Cnf.Formula.create ~num_vars:n clauses in
  let r, st = Sat.Solver.solve f in
  (match r with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "odd xor cycle is unsatisfiable");
  (* The Gauss–Jordan pass refutes the cycle before search. *)
  check "xors found" n st.Sat.Solver.xors;
  check "no conflicts" 0 st.Sat.Solver.conflicts

(* --- level-0 XOR reasoning (Sat.Gauss) ------------------------------ *)

(* The 2^(k-1) clauses encoding [vars.(0) xor ... = rhs]: each forbids
   one assignment of the other parity. *)
let xor_clauses vars rhs =
  let k = Array.length vars in
  List.filter_map
    (fun m ->
      let trues = ref 0 in
      Array.iteri (fun i _ -> if m land (1 lsl i) = 0 then incr trues) vars;
      if (!trues land 1 = 1) <> rhs then
        Some (Array.mapi (fun i v -> if m land (1 lsl i) = 0 then -v else v) vars)
      else None)
    (List.init (1 lsl k) Fun.id)

let gauss_of ~num_vars clauses =
  Sat.Gauss.of_flat
    (Cnf.Flat.of_formula (Cnf.Formula.create ~num_vars clauses))

let xors_t = Alcotest.(list (pair (array int) bool))

let test_gauss_detection () =
  let base = xor_clauses [| 1; 3; 5 |] true in
  check "width 3 is 4 clauses" 4 (List.length base);
  Alcotest.check xors_t "found" [ ([| 1; 3; 5 |], true) ]
    (Sat.Gauss.xors (gauss_of ~num_vars:5 base));
  (* Clause order, literal order and duplicate clauses do not matter. *)
  let shuffled =
    List.rev_map (fun c -> Array.of_list (List.rev (Array.to_list c))) base
  in
  Alcotest.check xors_t "any order, duplicates" [ ([| 1; 3; 5 |], true) ]
    (Sat.Gauss.xors
       (gauss_of ~num_vars:5 (shuffled @ [ List.hd base; List.hd shuffled ])));
  (* Neither do a duplicated literal or unrelated clauses. *)
  Alcotest.check xors_t "duplicate literal" [ ([| 2; 4 |], false) ]
    (Sat.Gauss.xors
       (gauss_of ~num_vars:4
          [ [| 2; -4; 2 |]; [| 1; 2; 3 |]; [| -2; 4 |]; [| 1 |] ]));
  (* One clause missing is no XOR. *)
  check "one clause missing" 0
    (Sat.Gauss.count (gauss_of ~num_vars:5 (List.tl base)));
  (* Width 7 is past the detector. *)
  let wide = xor_clauses [| 1; 2; 3; 4; 5; 6; 7 |] false in
  check "width 7 is 64 clauses" 64 (List.length wide);
  check "width 7 ignored" 0 (Sat.Gauss.count (gauss_of ~num_vars:7 wide));
  check "width 6 found" 1
    (Sat.Gauss.count
       (gauss_of ~num_vars:6 (xor_clauses [| 1; 2; 3; 4; 5; 6 |] false)));
  (* A tautology is dropped, not read as the missing pattern. *)
  check "tautology ignored" 0
    (Sat.Gauss.count
       (gauss_of ~num_vars:2 [ [| 1; 2 |]; [| -1; -2; 2 |]; [| -1; 1; 2 |] ]));
  (* Both parities over one variable set: two XORs, contradictory. *)
  let both = xor_clauses [| 1; 2 |] true @ xor_clauses [| 1; 2 |] false in
  check "both parities" 2 (Sat.Gauss.count (gauss_of ~num_vars:2 both));
  match Sat.Gauss.eliminate (gauss_of ~num_vars:2 both) with
  | Sat.Gauss.Inconsistent -> ()
  | Sat.Gauss.Derived _ -> Alcotest.fail "x1 xor x2 = 0 and = 1"

let clauses_t = Alcotest.(list (array int))

let test_gauss_elimination () =
  (* x1 xor x2 = 0, x2 xor x3 = 0, x1 xor x3 = 1: no solution. *)
  let refuted =
    xor_clauses [| 1; 2 |] false
    @ xor_clauses [| 2; 3 |] false
    @ xor_clauses [| 1; 3 |] true
  in
  (match Sat.Gauss.eliminate (gauss_of ~num_vars:3 refuted) with
   | Sat.Gauss.Inconsistent -> ()
   | Sat.Gauss.Derived _ -> Alcotest.fail "inconsistent system not refuted");
  (* x1 xor x2 xor x3 = 1, x1 xor x2 = 0, x2 xor x3 xor x4 = 0 reduce to
     x1 xor x4 = 1, x2 xor x4 = 1 and x3 = 1. *)
  let system =
    xor_clauses [| 1; 2; 3 |] true
    @ xor_clauses [| 1; 2 |] false
    @ xor_clauses [| 2; 3; 4 |] false
  in
  let derived extra =
    match Sat.Gauss.eliminate (gauss_of ~num_vars:4 (system @ extra)) with
    | Sat.Gauss.Derived cs -> cs
    | Sat.Gauss.Inconsistent -> Alcotest.fail "consistent system refuted"
  in
  Alcotest.check clauses_t "units and equivalences"
    [ [| 1; 4 |]; [| -1; -4 |]; [| 2; 4 |]; [| -2; -4 |]; [| 3 |] ]
    (derived []);
  (* Clauses the input already holds are not derived again. *)
  Alcotest.check clauses_t "input clauses skipped"
    [ [| -1; -4 |]; [| 2; 4 |]; [| -2; -4 |] ]
    (derived [ [| 3 |]; [| 4; 1 |] ]);
  (* One XOR alone derives nothing. *)
  (match Sat.Gauss.eliminate (gauss_of ~num_vars:3 (xor_clauses [| 1; 2; 3 |] true)) with
   | Sat.Gauss.Derived [] -> ()
   | _ -> Alcotest.fail "a single XOR derived something");
  (* Through the solver: the derived unit and equivalences are counted,
     and the model satisfies the input. *)
  let f = Cnf.Formula.create ~num_vars:4 system in
  let r, st = Sat.Solver.solve f in
  (match r with
   | Sat.Solver.Sat m -> check_bool "model" true (Cnf.Formula.eval f m)
   | _ -> Alcotest.fail "system is satisfiable");
  check "xors" 3 st.Sat.Solver.xors;
  check "xor_derived" 5 st.Sat.Solver.xor_derived;
  (* With a proof the pass does not run. *)
  let _, st = Sat.Solver.solve ~proof:(Sat.Proof.create ()) f in
  check "xors under proof" 0 st.Sat.Solver.xors

let test_stats_sanity () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let _, st = Sat.Solver.solve f in
  check_bool "conflicts counted" true (st.Sat.Solver.conflicts > 0);
  check_bool "decisions counted" true (st.Sat.Solver.decisions > 0);
  check_bool "time sane" true (st.Sat.Solver.time >= 0.0);
  check_bool "learned clauses" true (st.Sat.Solver.learned > 0)

let test_decisions_or_max () =
  let f = pigeonhole ~pigeons:3 ~holes:3 in
  let d = Sat.Solver.decisions_or_max f in
  check_bool "nonnegative" true (d >= 0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  [
    ("trivial cases", `Quick, test_trivial);
    ("tautologies and duplicates", `Quick, test_tautology_and_duplicates);
    ("pigeonhole", `Quick, test_pigeonhole);
    ("limits respected", `Quick, test_limits);
    ("decision counter", `Quick, test_decision_counter);
    ("xor chain unsat", `Quick, test_xor_chain_unsat);
    ("gauss: XOR detection", `Quick, test_gauss_detection);
    ("gauss: elimination", `Quick, test_gauss_elimination);
    ("stats sanity", `Quick, test_stats_sanity);
    ("decisions_or_max", `Quick, test_decisions_or_max);
  ]
  @ qsuite [ prop_agrees_with_brute_force; prop_models_always_valid ]

(* ------------------------------------------------------------------ *)
(* Additional robustness cases *)

let test_unused_variables () =
  (* Variables that appear in no clause must still get model entries. *)
  let f = Cnf.Formula.create ~num_vars:10 [ [| 3 |]; [| -7 |] ] in
  match solve f with
  | Sat.Solver.Sat m ->
    check "model covers all vars" 10 (Array.length m);
    check_bool "x3" true m.(2);
    check_bool "x7" false m.(6)
  | _ -> Alcotest.fail "satisfiable"

let test_determinism () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let _, st1 = Sat.Solver.solve f in
  let _, st2 = Sat.Solver.solve f in
  check "same decisions" st1.Sat.Solver.decisions st2.Sat.Solver.decisions;
  check "same conflicts" st1.Sat.Solver.conflicts st2.Sat.Solver.conflicts

let test_large_clause () =
  (* One wide clause plus units forcing its last literal. *)
  let n = 50 in
  let wide = Array.init n (fun i -> i + 1) in
  let units = List.init (n - 1) (fun i -> [| -(i + 1) |]) in
  let f = Cnf.Formula.create ~num_vars:n (wide :: units) in
  match solve f with
  | Sat.Solver.Sat m -> check_bool "last var forced" true m.(n - 1)
  | _ -> Alcotest.fail "satisfiable"

let test_all_negative () =
  let f =
    Cnf.Formula.create ~num_vars:4
      [ [| -1; -2 |]; [| -2; -3 |]; [| -3; -4 |]; [| -1; -4 |] ]
  in
  match solve f with
  | Sat.Solver.Sat m -> check_bool "model valid" true (Cnf.Formula.eval f m)
  | _ -> Alcotest.fail "satisfiable (all false works)"

let suite =
  suite
  @ [
      ("unused variables", `Quick, test_unused_variables);
      ("determinism", `Quick, test_determinism);
      ("wide clause propagation", `Quick, test_large_clause);
      ("all-negative clauses", `Quick, test_all_negative);
    ]

(* ------------------------------------------------------------------ *)
(* DRAT proofs *)

let test_proof_validates_on_php () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let proof = Sat.Proof.create () in
  (match Sat.Solver.solve ~proof f with
   | Sat.Solver.Unsat, _ -> ()
   | _ -> Alcotest.fail "php(5,4) unsat");
  check_bool "proof has steps" true (Sat.Proof.num_steps proof > 0);
  check_bool "proof validates" true (Sat.Proof.check f proof)

let test_proof_text_roundtrip () =
  let f = pigeonhole ~pigeons:4 ~holes:3 in
  let proof = Sat.Proof.create () in
  (match Sat.Solver.solve ~proof f with
   | Sat.Solver.Unsat, _ -> ()
   | _ -> Alcotest.fail "unsat");
  let text = Sat.Proof.to_string proof in
  let proof' = Sat.Proof.of_string text in
  check "same steps" (Sat.Proof.num_steps proof) (Sat.Proof.num_steps proof');
  check_bool "reparsed proof validates" true (Sat.Proof.check f proof')

let test_proof_rejects_bogus () =
  let f = Cnf.Formula.create ~num_vars:2 [ [| 1; 2 |] ] in
  (* Adding the empty clause out of thin air is not RUP here. *)
  let bogus = Sat.Proof.create () in
  Sat.Proof.add bogus [||];
  check_bool "bogus proof rejected" false (Sat.Proof.check f bogus);
  (* A non-RUP clause addition must be rejected too. *)
  let bogus2 = Sat.Proof.create () in
  Sat.Proof.add bogus2 [| -1 |];
  check_bool "non-rup rejected" false (Sat.Proof.check f bogus2);
  (* Deleting an absent clause is invalid. *)
  let bogus3 = Sat.Proof.create () in
  Sat.Proof.delete bogus3 [| 1 |];
  check_bool "bad delete rejected" false (Sat.Proof.check f bogus3)

let prop_unsat_proofs_validate =
  QCheck.Test.make ~name:"solver: every UNSAT run emits a valid DRAT proof"
    ~count:150
    QCheck.(triple (int_bound 10000000) (int_range 3 8) (int_range 8 35))
    (fun (seed, nvars, nclauses) ->
      let f = random_formula seed nvars nclauses 3 in
      let proof = Sat.Proof.create () in
      match Sat.Solver.solve ~proof f with
      | Sat.Solver.Unsat, _ -> Sat.Proof.check f proof
      | (Sat.Solver.Sat _ | Sat.Solver.Unknown), _ -> true)

let suite =
  suite
  @ [
      ("drat proof on pigeonhole", `Quick, test_proof_validates_on_php);
      ("drat text roundtrip", `Quick, test_proof_text_roundtrip);
      ("drat rejects bogus proofs", `Quick, test_proof_rejects_bogus);
    ]
  @ qsuite [ prop_unsat_proofs_validate ]

(* ------------------------------------------------------------------ *)
(* Incremental solving under assumptions *)

let test_incremental_basic () =
  let s = Sat.Solver.Incremental.create () in
  check "no vars" 0 (Sat.Solver.Incremental.num_vars s);
  let v1 = Sat.Solver.Incremental.new_var s in
  check "first var" 1 v1;
  Sat.Solver.Incremental.add_clause s [| 1; 2 |];
  check "implicit alloc" 2 (Sat.Solver.Incremental.num_vars s);
  (match fst (Sat.Solver.Incremental.solve s) with
   | Sat.Solver.Sat m -> check_bool "model" true (m.(0) || m.(1))
   | _ -> Alcotest.fail "satisfiable");
  (* Make it unsat incrementally. *)
  Sat.Solver.Incremental.add_clause s [| -1 |];
  Sat.Solver.Incremental.add_clause s [| -2 |];
  match fst (Sat.Solver.Incremental.solve s) with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "now unsatisfiable"

let test_incremental_assumptions () =
  let s = Sat.Solver.Incremental.create () in
  (* x1 <-> x2 *)
  Sat.Solver.Incremental.add_clause s [| -1; 2 |];
  Sat.Solver.Incremental.add_clause s [| 1; -2 |];
  (* Contradictory assumptions: x1 & ~x2. *)
  (match fst (Sat.Solver.Incremental.solve ~assumptions:[| 1; -2 |] s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "unsat under assumptions");
  (* Still satisfiable without them — the session is not poisoned. *)
  (match fst (Sat.Solver.Incremental.solve s) with
   | Sat.Solver.Sat _ -> ()
   | _ -> Alcotest.fail "sat without assumptions");
  (* Satisfiable under consistent assumptions, honoring them. *)
  match fst (Sat.Solver.Incremental.solve ~assumptions:[| -1 |] s) with
  | Sat.Solver.Sat m ->
    check_bool "x1 false" false m.(0);
    check_bool "x2 false" false m.(1)
  | _ -> Alcotest.fail "sat under ~x1"

let test_incremental_model_enumeration () =
  (* Enumerate all models of a small formula by blocking clauses; the
     count must match brute force. *)
  let f =
    Cnf.Formula.create ~num_vars:4
      [ [| 1; 2 |]; [| -2; 3 |]; [| -1; -4 |] ]
  in
  let expected = ref 0 in
  for m = 0 to 15 do
    let a = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
    if Cnf.Formula.eval f a then incr expected
  done;
  let s = Sat.Solver.Incremental.create () in
  (* Mention all 4 vars so models have full width. *)
  for _ = 1 to 4 do
    ignore (Sat.Solver.Incremental.new_var s)
  done;
  Sat.Solver.Incremental.add_formula s f;
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match fst (Sat.Solver.Incremental.solve s) with
    | Sat.Solver.Sat m ->
      incr count;
      check_bool "model valid" true (Cnf.Formula.eval f m);
      let blocking =
        Array.mapi (fun i v -> if v then -(i + 1) else i + 1) m
      in
      Sat.Solver.Incremental.add_clause s blocking;
      if !count > 20 then Alcotest.fail "runaway enumeration"
    | Sat.Solver.Unsat -> continue := false
    | Sat.Solver.Unknown -> Alcotest.fail "unexpected unknown"
  done;
  check "model count matches brute force" !expected !count

let prop_incremental_agrees_with_batch =
  QCheck.Test.make ~name:"incremental: agrees with batch solver" ~count:150
    QCheck.(triple (int_bound 10000000) (int_range 2 9) (int_range 2 35))
    (fun (seed, nvars, nclauses) ->
      let f = random_formula seed nvars nclauses 3 in
      let batch =
        match solve f with
        | Sat.Solver.Sat _ -> `Sat
        | Sat.Solver.Unsat -> `Unsat
        | Sat.Solver.Unknown -> `Unknown
      in
      let s = Sat.Solver.Incremental.create () in
      Sat.Solver.Incremental.add_formula s f;
      let inc =
        match fst (Sat.Solver.Incremental.solve s) with
        | Sat.Solver.Sat m ->
          if
            Cnf.Formula.eval f
              (Array.init nvars (fun i ->
                   if i < Array.length m then m.(i) else false))
          then `Sat
          else `Invalid
        | Sat.Solver.Unsat -> `Unsat
        | Sat.Solver.Unknown -> `Unknown
      in
      batch = inc)

let prop_incremental_assumptions_sound =
  QCheck.Test.make
    ~name:"incremental: assumption answers match solving with units"
    ~count:100
    QCheck.(
      quad (int_bound 10000000) (int_range 2 7) (int_range 2 25)
        (int_range 1 3))
    (fun (seed, nvars, nclauses, nassum) ->
      (* Shrinking can step outside the declared ranges; clamp. *)
      let nvars = max 2 nvars
      and nclauses = max 1 nclauses
      and nassum = max 1 nassum in
      let f = random_formula seed nvars nclauses 3 in
      let rng = Aig.Rng.create (seed + 1) in
      let assumptions =
        Array.init nassum (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v)
      in
      (* Reference: add the assumptions as unit clauses to a copy. *)
      let f' =
        Cnf.Formula.add_clauses f
          (Array.to_list (Array.map (fun l -> [| l |]) assumptions))
      in
      let expected =
        match solve f' with
        | Sat.Solver.Sat _ -> `Sat
        | Sat.Solver.Unsat -> `Unsat
        | Sat.Solver.Unknown -> `Unknown
      in
      let s = Sat.Solver.Incremental.create () in
      Sat.Solver.Incremental.add_formula s f;
      (* Force allocation of all vars referenced by assumptions. *)
      while Sat.Solver.Incremental.num_vars s < nvars do
        ignore (Sat.Solver.Incremental.new_var s)
      done;
      let got =
        match fst (Sat.Solver.Incremental.solve ~assumptions s) with
        | Sat.Solver.Sat m ->
          if
            Cnf.Formula.eval f' (Array.sub m 0 nvars)
          then `Sat
          else `Invalid
        | Sat.Solver.Unsat -> `Unsat
        | Sat.Solver.Unknown -> `Unknown
      in
      expected = got)

let suite =
  suite
  @ [
      ("incremental basics", `Quick, test_incremental_basic);
      ("incremental assumptions", `Quick, test_incremental_assumptions);
      ("incremental model enumeration", `Quick,
       test_incremental_model_enumeration);
    ]
  @ qsuite
      [ prop_incremental_agrees_with_batch;
        prop_incremental_assumptions_sound ]

(* ------------------------------------------------------------------ *)
(* LRB branching heuristic *)

let prop_lrb_agrees_with_brute_force =
  QCheck.Test.make ~name:"solver(LRB): agrees with brute force" ~count:200
    QCheck.(
      quad (int_bound 10000000) (int_range 2 10) (int_range 1 40)
        (int_range 1 4))
    (fun (seed, nvars, nclauses, maxlen) ->
      let nvars = max 2 nvars
      and nclauses = max 1 nclauses
      and maxlen = max 1 maxlen in
      let f = random_formula seed nvars nclauses maxlen in
      let expected = Option.is_some (brute_force f) in
      match fst (Sat.Solver.solve ~heuristic:`Lrb f) with
      | Sat.Solver.Sat m -> expected && Cnf.Formula.eval f m
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown -> false)

let test_lrb_solves_pigeonhole () =
  match fst (Sat.Solver.solve ~heuristic:`Lrb (pigeonhole ~pigeons:6 ~holes:5)) with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "php(6,5) unsat under LRB"

let test_lrb_proofs_still_valid () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let proof = Sat.Proof.create () in
  (match fst (Sat.Solver.solve ~proof ~heuristic:`Lrb f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "unsat");
  check_bool "LRB proof validates" true (Sat.Proof.check f proof)

let suite =
  suite
  @ [
      ("lrb pigeonhole", `Quick, test_lrb_solves_pigeonhole);
      ("lrb drat proof", `Quick, test_lrb_proofs_still_valid);
    ]
  @ qsuite [ prop_lrb_agrees_with_brute_force ]

let test_assumption_core () =
  let s = Sat.Solver.Incremental.create () in
  (* x1 -> x2, x2 -> x3. *)
  Sat.Solver.Incremental.add_clause s [| -1; 2 |];
  Sat.Solver.Incremental.add_clause s [| -2; 3 |];
  (* Assume x1, an irrelevant x4, and ~x3: the core must not mention
     x4. *)
  ignore (Sat.Solver.Incremental.new_var s);
  (match fst (Sat.Solver.Incremental.solve ~assumptions:[| 1; 4; -3 |] s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "unsat under assumptions");
  let core = Sat.Solver.Incremental.last_core s in
  check_bool "core nonempty" true (Array.length core > 0);
  check_bool "core excludes x4" true
    (not (Array.exists (fun l -> abs l = 4) core));
  (* The core itself must be contradictory with the clauses. *)
  (match
     fst
       (Sat.Solver.Incremental.solve
          ~assumptions:(Sat.Solver.Incremental.last_core s) s)
   with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "core must still be contradictory");
  (* A satisfiable query clears the core. *)
  (match fst (Sat.Solver.Incremental.solve ~assumptions:[| 1 |] s) with
   | Sat.Solver.Sat _ -> ()
   | _ -> Alcotest.fail "sat under x1");
  check "core cleared" 0 (Array.length (Sat.Solver.Incremental.last_core s))

let prop_assumption_core_sound =
  QCheck.Test.make ~name:"incremental: extracted cores are contradictory"
    ~count:100
    QCheck.(triple (int_bound 10000000) (int_range 3 7) (int_range 3 25))
    (fun (seed, nvars, nclauses) ->
      let nvars = max 3 nvars and nclauses = max 3 nclauses in
      let f = random_formula seed nvars nclauses 3 in
      let rng = Aig.Rng.create (seed + 7) in
      let assumptions =
        Array.init 3 (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v)
      in
      let s = Sat.Solver.Incremental.create () in
      Sat.Solver.Incremental.add_formula s f;
      while Sat.Solver.Incremental.num_vars s < nvars do
        ignore (Sat.Solver.Incremental.new_var s)
      done;
      match fst (Sat.Solver.Incremental.solve ~assumptions s) with
      | Sat.Solver.Unsat ->
        let core = Sat.Solver.Incremental.last_core s in
        (* Every core literal is one of the assumptions... *)
        Array.for_all
          (fun l -> Array.exists (( = ) l) assumptions)
          core
        &&
        (* ...and assuming only the core stays contradictory. *)
        (match
           fst (Sat.Solver.Incremental.solve ~assumptions:core s)
         with
         | Sat.Solver.Unsat -> true
         | _ -> Array.length core = 0)
      | _ -> true)

let suite =
  suite
  @ [ ("assumption core", `Quick, test_assumption_core) ]
  @ qsuite [ prop_assumption_core_sound ]

(* ------------------------------------------------------------------ *)
(* Regression tests for the hardened engine (ISSUE 1):
   - the wall-clock limit is honored even on decision-heavy runs;
   - assumption cores only ever contain assumptions, also after unit
     learning, and re-assuming a core stays Unsat;
   - learned-clause LBDs are computed at learn time (pre-backjump);
   - the incremental path logs DRAT;
   - Glucose restarts are available and sound. *)

let test_time_limit_honored () =
  let hard = pigeonhole ~pigeons:10 ~holes:9 in
  let max_seconds = 0.2 in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some max_seconds }
  in
  let t0 = Sys.time () in
  (match fst (Sat.Solver.solve ~limits hard) with
   | Sat.Solver.Unknown -> ()
   | _ -> Alcotest.fail "php(10,9) should hit the 0.2s wall-clock limit");
  let elapsed = Sys.time () -. t0 in
  check_bool "stopped within 2x of max_seconds" true
    (elapsed <= 2.0 *. max_seconds)

let test_time_limit_honored_incremental () =
  let hard = pigeonhole ~pigeons:10 ~holes:9 in
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_formula s hard;
  let max_seconds = 0.2 in
  let limits =
    { Sat.Solver.no_limits with Sat.Solver.max_seconds = Some max_seconds }
  in
  let t0 = Sys.time () in
  (match fst (Sat.Solver.Incremental.solve ~limits s) with
   | Sat.Solver.Unknown -> ()
   | _ -> Alcotest.fail "incremental php(10,9) should hit the time limit");
  let elapsed = Sys.time () -. t0 in
  check_bool "incremental stopped within 2x of max_seconds" true
    (elapsed <= 2.0 *. max_seconds)

let test_core_subset_and_reassumable () =
  let s = Sat.Solver.Incremental.create () in
  (* Implication chain x1 -> x2 -> ... -> x10. *)
  for i = 1 to 9 do
    Sat.Solver.Incremental.add_clause s [| -i; i + 1 |]
  done;
  let assumptions = [| 5; 1; -10; 7 |] in
  (match fst (Sat.Solver.Incremental.solve ~assumptions s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "chain contradicts the assumptions");
  let core = Sat.Solver.Incremental.last_core s in
  check_bool "core nonempty" true (Array.length core > 0);
  check_bool "core is a subset of the assumptions" true
    (Array.for_all (fun l -> Array.exists (( = ) l) assumptions) core);
  match fst (Sat.Solver.Incremental.solve ~assumptions:core s) with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "re-assuming the core must stay Unsat"

let test_core_after_unit_learning () =
  (* Sessions that learn unit clauses (batch query first) must still
     report cores drawn only from the assumptions of the later
     assumption query — never pseudo-decisions left at level > 0. *)
  for seed = 1 to 40 do
    let nvars = 8 in
    let f = random_formula seed nvars 30 3 in
    let s = Sat.Solver.Incremental.create () in
    Sat.Solver.Incremental.add_formula s f;
    while Sat.Solver.Incremental.num_vars s < nvars do
      ignore (Sat.Solver.Incremental.new_var s)
    done;
    ignore (Sat.Solver.Incremental.solve s);
    let rng = Aig.Rng.create (seed * 31) in
    let assumptions =
      Array.init 4 (fun _ ->
          let v = 1 + Aig.Rng.int rng nvars in
          if Aig.Rng.bool rng then v else -v)
    in
    match fst (Sat.Solver.Incremental.solve ~assumptions s) with
    | Sat.Solver.Unsat ->
      let core = Sat.Solver.Incremental.last_core s in
      if
        not
          (Array.for_all
             (fun l -> Array.exists (( = ) l) assumptions)
             core)
      then
        Alcotest.failf "seed %d: core contains a non-assumption literal"
          seed;
      (match fst (Sat.Solver.Incremental.solve ~assumptions:core s) with
       | Sat.Solver.Unsat -> ()
       | Sat.Solver.Sat _ ->
         Alcotest.failf "seed %d: core is not re-assumable to Unsat" seed
       | Sat.Solver.Unknown -> Alcotest.failf "seed %d: unknown" seed)
    | _ -> ()
  done

let test_lbd_computed_at_learn_time () =
  (* At learn time every literal of the learned clause is assigned: a
     unit clause has glue exactly 1 and any longer clause spans the
     current decision level plus at least one lower level, so its glue
     lies in [2, length].  A post-backjump computation over unwound
     state cannot maintain these bounds. *)
  let f = pigeonhole ~pigeons:6 ~holes:5 in
  let count = ref 0 in
  let bad = ref 0 in
  let on_learnt lits lbd =
    incr count;
    if Array.length lits = 1 then begin
      if lbd <> 1 then incr bad
    end
    else if lbd < 2 || lbd > Array.length lits then incr bad
  in
  (match fst (Sat.Solver.solve ~on_learnt f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) unsat");
  check_bool "learnt clauses observed" true (!count > 0);
  check "all glue values in range" 0 !bad

let test_incremental_proof_logged () =
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_formula s f;
  let proof = Sat.Proof.create () in
  (match fst (Sat.Solver.Incremental.solve ~proof s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(5,4) unsat");
  check_bool "incremental proof has steps" true
    (Sat.Proof.num_steps proof > 0);
  check_bool "incremental proof validates" true (Sat.Proof.check f proof)

let test_incremental_proof_across_calls () =
  (* The same proof threaded through two calls, with clauses added in
     between, validates against the conjunction of all clauses. *)
  let f = pigeonhole ~pigeons:4 ~holes:3 in
  let all = Array.to_list f.Cnf.Formula.clauses in
  let n1 = List.length all / 2 in
  let batch1 = List.filteri (fun i _ -> i < n1) all in
  let batch2 = List.filteri (fun i _ -> i >= n1) all in
  let s = Sat.Solver.Incremental.create () in
  let proof = Sat.Proof.create () in
  List.iter (Sat.Solver.Incremental.add_clause s) batch1;
  ignore (Sat.Solver.Incremental.solve ~proof s);
  List.iter (Sat.Solver.Incremental.add_clause s) batch2;
  (match fst (Sat.Solver.Incremental.solve ~proof s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(4,3) unsat once complete");
  check_bool "cross-call proof validates" true (Sat.Proof.check f proof)

let test_incremental_sealed_proof_reuse () =
  (* A recorder sealed by a refutation must stay exactly that checkable
     refutation when sessions keep solving with it — reuse must not
     append steps past the seal. *)
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_formula s f;
  let proof = Sat.Proof.create () in
  (match fst (Sat.Solver.Incremental.solve ~proof s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(5,4) unsat");
  check_bool "proof sealed by the refutation" true (Sat.Proof.sealed proof);
  check_bool "sealed proof validates" true (Sat.Proof.check f proof);
  let steps = Sat.Proof.num_steps proof in
  (* Solve again on the (now broken) session with the same recorder:
     the re-seal is a no-op. *)
  (match fst (Sat.Solver.Incremental.solve ~proof s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "a broken session answers Unsat forever");
  check "no steps appended on reuse" steps (Sat.Proof.num_steps proof);
  check_bool "still validates after reuse" true (Sat.Proof.check f proof);
  (* A fresh, healthy session handed the already-sealed recorder must
     leave it untouched too: logging is disabled for that call rather
     than silently interleaving a second derivation. *)
  let s2 = Sat.Solver.Incremental.create () in
  List.iter
    (Sat.Solver.Incremental.add_clause s2)
    [ [| 1; 2 |]; [| -1; 2 |]; [| 1; -2 |]; [| -1; -2 |] ];
  (match fst (Sat.Solver.Incremental.solve ~proof s2) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "contradictory binaries unsat");
  check "sealed recorder untouched by a later session" steps
    (Sat.Proof.num_steps proof);
  check_bool "the original refutation still validates" true
    (Sat.Proof.check f proof)

let test_glucose_restarts () =
  (match
     fst (Sat.Solver.solve ~restarts:`Glucose (pigeonhole ~pigeons:7 ~holes:6))
   with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(7,6) unsat under Glucose restarts");
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let proof = Sat.Proof.create () in
  (match fst (Sat.Solver.solve ~proof ~restarts:`Glucose f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "unsat");
  check_bool "glucose-run proof validates" true (Sat.Proof.check f proof)

(* ------------------------------------------------------------------ *)
(* Regression tests for the arena-allocated clause database (ISSUE 3):
   everything handed out by the solver — models, assumption cores,
   exported clauses — must be a fresh array, never an alias into
   solver-internal storage that compaction (or the caller) could
   corrupt. *)

let test_core_is_fresh_array () =
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_clause s [| -1; 2 |];
  Sat.Solver.Incremental.add_clause s [| -2; 3 |];
  (match fst (Sat.Solver.Incremental.solve ~assumptions:[| 1; -3 |] s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "unsat under assumptions");
  let core = Sat.Solver.Incremental.last_core s in
  let saved = Array.copy core in
  (* Clobber the returned array; the session must be unaffected. *)
  Array.fill core 0 (Array.length core) 9999;
  let core' = Sat.Solver.Incremental.last_core s in
  check_bool "core unaffected by caller mutation" true (core' = saved);
  (* Re-solving with the pristine copy still works. *)
  (match fst (Sat.Solver.Incremental.solve ~assumptions:core' s) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "re-assuming the core must stay Unsat");
  check_bool "core stable across re-solve" true
    (Sat.Solver.Incremental.last_core s = saved)

let test_model_is_fresh_array () =
  let f = random_formula 99 8 12 3 in
  match fst (Sat.Solver.solve f) with
  | Sat.Solver.Sat m ->
    check_bool "model satisfies" true (Cnf.Formula.eval f m);
    (* Clobber the model, then re-solve: the fresh answer must not see
       the mutation. *)
    Array.fill m 0 (Array.length m) false;
    (match fst (Sat.Solver.solve f) with
     | Sat.Solver.Sat m' ->
       check_bool "second model satisfies" true (Cnf.Formula.eval f m')
     | _ -> Alcotest.fail "formula became unsat?!")
  | Sat.Solver.Unsat -> () (* seed gave an unsat formula: vacuous *)
  | Sat.Solver.Unknown -> Alcotest.fail "unknown"

let test_exported_clauses_are_fresh () =
  (* The export hook receives freshly mapped arrays: mutating them must
     corrupt neither the solver state nor the proof. *)
  let f = pigeonhole ~pigeons:5 ~holes:4 in
  let proof = Sat.Proof.create () in
  let exported = ref 0 in
  let export clause _lbd =
    incr exported;
    Array.fill clause 0 (Array.length clause) 0
  in
  (match fst (Sat.Solver.solve ~proof ~export f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(5,4) unsat");
  check_bool "clauses were exported" true (!exported > 0);
  check_bool "proof validates despite export mutation" true
    (Sat.Proof.check f proof)

let test_allocation_telemetry () =
  let f = pigeonhole ~pigeons:6 ~holes:5 in
  let _, st = Sat.Solver.solve f in
  check_bool "minor_words measured" true (st.Sat.Solver.minor_words > 0.0);
  check_bool "major_collections sane" true
    (st.Sat.Solver.major_collections >= 0);
  (* A tiny learnt cap must drive reductions (arena compactions). *)
  let _, st' = Sat.Solver.solve ~reduce_base:8 ~reduce_inc:4 f in
  check_bool "reduces counted under low cap" true (st'.Sat.Solver.reduces > 0)

let suite =
  suite
  @ [
      ("core is a fresh array", `Quick, test_core_is_fresh_array);
      ("model is a fresh array", `Quick, test_model_is_fresh_array);
      ("exported clauses are fresh", `Quick,
       test_exported_clauses_are_fresh);
      ("allocation telemetry", `Quick, test_allocation_telemetry);
    ]

let suite =
  suite
  @ [
      ("time limit honored (batch)", `Quick, test_time_limit_honored);
      ("time limit honored (incremental)", `Quick,
       test_time_limit_honored_incremental);
      ("core subset + re-assumable", `Quick, test_core_subset_and_reassumable);
      ("core sound after unit learning", `Quick,
       test_core_after_unit_learning);
      ("lbd computed at learn time", `Quick, test_lbd_computed_at_learn_time);
      ("incremental drat proof", `Quick, test_incremental_proof_logged);
      ("incremental drat proof across calls", `Quick,
       test_incremental_proof_across_calls);
      ("incremental sealed drat proof on reuse", `Quick,
       test_incremental_sealed_proof_reuse);
      ("glucose restarts", `Quick, test_glucose_restarts);
    ]

(* --- restart-boundary inprocessing --------------------------------- *)

let inproc_eager =
  (* Fire on every restart so small test instances hit all three
     passes; shrink the reduce cadence to force arena compactions in
     between, exercising the inprocessing/arena_gc interaction. *)
  { Sat.Solver.default_inprocess with Sat.Solver.inproc_interval = 1 }

let test_inprocess_counters_and_proof () =
  let f = pigeonhole ~pigeons:7 ~holes:6 in
  let proof = Sat.Proof.create () in
  let result, st =
    Sat.Solver.solve ~proof ~inprocess:inproc_eager ~reduce_base:50
      ~reduce_inc:25 f
  in
  (match result with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(7,6) is unsat");
  check_bool "probing fired" true (st.Sat.Solver.probed > 0);
  check_bool "vivification or subsumption fired" true
    (st.Sat.Solver.vivified + st.Sat.Solver.inproc_subsumed > 0);
  check_bool "proof sealed" true (Sat.Proof.sealed proof);
  check_bool "proof checks with inprocessing on" true
    (Sat.Proof.check f proof)

let test_inprocess_off_is_deterministic_and_counts_zero () =
  (* Without [?inprocess] none of the new code runs: the counters stay
     zero and the trajectory is reproducible run to run (the portfolio
     jobs=1 bit-identity guarantee rides on this). *)
  let f = pigeonhole ~pigeons:7 ~holes:6 in
  let _, a = Sat.Solver.solve f in
  let _, b = Sat.Solver.solve f in
  check "probed stays zero" 0 a.Sat.Solver.probed;
  check "vivified stays zero" 0 a.Sat.Solver.vivified;
  check "inproc_subsumed stays zero" 0 a.Sat.Solver.inproc_subsumed;
  check "conflicts reproducible" a.Sat.Solver.conflicts b.Sat.Solver.conflicts;
  check "decisions reproducible" a.Sat.Solver.decisions b.Sat.Solver.decisions;
  check "learned reproducible" a.Sat.Solver.learned b.Sat.Solver.learned

let test_inprocess_sat_models_stay_valid () =
  (* Vivification/subsumption rewrite learnt clauses in place in the
     arena; a model found afterwards must still satisfy the input. *)
  let checked = ref 0 in
  for seed = 1 to 12 do
    let f =
      Workloads.Satcomp.random_ksat ~seed ~num_vars:60 ~num_clauses:240 ~k:3
    in
    match
      fst
        (Sat.Solver.solve ~inprocess:inproc_eager ~reduce_base:30
           ~reduce_inc:15 f)
    with
    | Sat.Solver.Sat m ->
      incr checked;
      check_bool "model satisfies under inprocessing" true
        (Cnf.Formula.eval f m)
    | Sat.Solver.Unsat | Sat.Solver.Unknown -> ()
  done;
  check_bool "some satisfiable seeds exercised" true (!checked > 0)

let test_inprocess_incremental () =
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_formula s (pigeonhole ~pigeons:6 ~holes:5);
  match
    fst (Sat.Solver.Incremental.solve ~inprocess:inproc_eager s)
  with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "php(6,5) unsat under incremental inprocessing"

let suite =
  suite
  @ [
      ("inprocessing: counters + combined proof", `Quick,
       test_inprocess_counters_and_proof);
      ("inprocessing off: zero counters, reproducible", `Quick,
       test_inprocess_off_is_deterministic_and_counts_zero);
      ("inprocessing: SAT models stay valid", `Quick,
       test_inprocess_sat_models_stay_valid);
      ("inprocessing: incremental sessions", `Quick,
       test_inprocess_incremental);
    ]

(* --- warm starts: seed/snapshot and the flat solve path -------------- *)

let stats_triple (s : Sat.Solver.stats) =
  (s.Sat.Solver.decisions, s.Sat.Solver.conflicts, s.Sat.Solver.propagations)

(* (decisions, conflicts, propagations) recorded when [solve] still had
   its own array-of-arrays loader beside [solve_flat]'s CSR loader.
   Both entry points now share one loader; these pins keep the search
   trajectory bit-identical to the two-loader solver.  The rows with
   LRB branching, Glucose restarts or inprocessing reach the option
   paths the defaults do not; they were recorded against the solver
   whose assignments were one int per variable and whose watchers were
   two-word (cref, blocker) pairs.  The C5 row, the CNF-XOR family, was
   recorded with the level-0 Gauss–Jordan pass, which every other row
   passes through without finding two XORs. *)
let golden_trajectories () =
  let instances = Workloads.Suites.i_suite () @ Workloads.Suites.c_suite () in
  let suite name =
    Eda4sat.Instance.direct_formula (List.assoc name instances)
  in
  let capped =
    { Sat.Solver.no_limits with Sat.Solver.max_conflicts = Some 20_000 }
  in
  let default = (`Evsids, `Luby, None) in
  let lrb_glucose = (`Lrb, `Glucose, None) in
  let inprocess = (`Evsids, `Luby, Some Sat.Solver.default_inprocess) in
  [
    ("php(7,6)", pigeonhole ~pigeons:7 ~holes:6, Sat.Solver.no_limits,
     default, `Unsat, (898, 727, 9459));
    ("random 42", random_formula 42 12 50 4, Sat.Solver.no_limits, default,
     `Unsat, (0, 0, 0));
    ("empty clause",
     Cnf.Formula.create ~num_vars:3 [ [| 1; -1 |]; [||]; [| 2 |] ],
     Sat.Solver.no_limits, default, `Unsat, (0, 0, 0));
    ("duplicate literals",
     Cnf.Formula.create ~num_vars:2 [ [| 1; 1 |]; [| -1; 2; 2 |] ],
     Sat.Solver.no_limits, default, `Sat, (0, 0, 2));
    ("I5", suite "I5", capped, default, `Unsat, (5131, 3863, 1128224));
    ("C8-php", suite "C8-php", capped, default, `Unknown,
     (25066, 20000, 279795));
    ("php(7,6) lrb+glucose", pigeonhole ~pigeons:7 ~holes:6,
     Sat.Solver.no_limits, lrb_glucose, `Unsat, (1524, 1252, 15020));
    ("C8-php lrb+glucose", suite "C8-php", capped, lrb_glucose, `Unknown,
     (26042, 20000, 322800));
    ("php(7,6) inprocess", pigeonhole ~pigeons:7 ~holes:6,
     Sat.Solver.no_limits, inprocess, `Unsat, (863, 703, 10022));
    ("C5-cnfxor", suite "C5-cnfxor", capped, default, `Sat, (29, 13, 592));
  ]

let test_golden_trajectories () =
  List.iter
    (fun (name, f, limits, (heuristic, restarts, inprocess), verdict, triple) ->
      let check entry (r, st) =
        let label = Printf.sprintf "%s via %s" name entry in
        (match (r, verdict) with
         | Sat.Solver.Sat m, `Sat ->
           check_bool (label ^ ": model") true (Cnf.Formula.eval f m)
         | Sat.Solver.Unsat, `Unsat | Sat.Solver.Unknown, `Unknown -> ()
         | _ -> Alcotest.failf "%s: unexpected verdict" label);
        Alcotest.(check (triple int int int)) label triple (stats_triple st)
      in
      check "solve"
        (Sat.Solver.solve ~limits ~heuristic ~restarts ?inprocess f);
      check "solve_flat"
        (Sat.Solver.solve_flat ~limits ~heuristic ~restarts ?inprocess
           (Cnf.Flat.of_formula f)))
    (golden_trajectories ())

(* An incremental session that solves, then grows by fresh variables
   (so every per-variable and per-literal table is reallocated) and
   solves again under assumptions.  The second block is php(5,4) over
   the fresh variables, each clause guarded by selector 71: assuming
   the selector refutes it, assuming its negation does not.  Session
   counters accumulate across solves. *)
let test_golden_incremental_growth () =
  let module I = Sat.Solver.Incremental in
  let s = I.create () in
  I.add_formula s
    (Workloads.Satcomp.random_ksat ~seed:3 ~num_vars:50 ~num_clauses:200 ~k:3);
  let php = pigeonhole ~pigeons:5 ~holes:4 in
  let solve_pin label ?assumptions verdict triple =
    let r, st = I.solve ?assumptions s in
    (match (r, verdict) with
     | Sat.Solver.Sat _, `Sat | Sat.Solver.Unsat, `Unsat -> ()
     | _ -> Alcotest.failf "%s: unexpected verdict" label);
    Alcotest.(check (triple int int int)) label triple (stats_triple st)
  in
  solve_pin "first solve" `Sat (76, 60, 886);
  Array.iter
    (fun c ->
      I.add_clause s
        (Array.append [| -71 |]
           (Array.map (fun l -> if l > 0 then l + 50 else l - 50) c)))
    php.Cnf.Formula.clauses;
  check "grown" 71 (I.num_vars s);
  solve_pin "selector assumed" ~assumptions:[| 71 |] `Unsat
    (129, 88, 1278);
  Alcotest.(check (array int)) "core" [| 71 |] (I.last_core s);
  solve_pin "selector refuted" ~assumptions:[| -71 |] `Sat
    (160, 88, 1348)

(* DRAT streams are part of the trajectory: every learned clause and
   every deletion must come out in the same order. *)
let test_golden_proof_digests () =
  let i5 =
    Eda4sat.Instance.direct_formula
      (List.assoc "I5" (Workloads.Suites.i_suite ()))
  in
  List.iter
    (fun (name, f, digest) ->
      let proof = Sat.Proof.create () in
      (match fst (Sat.Solver.solve ~proof f) with
       | Sat.Solver.Unsat -> ()
       | _ -> Alcotest.failf "%s: expected Unsat" name);
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (Sat.Proof.to_string proof))))
    [
      ("php(7,6)", pigeonhole ~pigeons:7 ~holes:6,
       "232dd6ab6e18693b84c3add5f088ecc1");
      ("I5", i5, "b614b0c66fe9c00b6e2c42327fdee9c9");
    ]

let test_snapshot_fires_and_seed_resumes () =
  let f = pigeonhole ~pigeons:7 ~holes:6 in
  let snap = ref None in
  let r1, s1 = Sat.Solver.solve ~snapshot:(fun sd -> snap := Some sd) f in
  (match r1 with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(7,6) is unsat");
  let sd = match !snap with
    | Some sd -> sd
    | None -> Alcotest.fail "snapshot callback did not fire"
  in
  check_bool "cold solve had conflicts" true (s1.Sat.Solver.conflicts > 0);
  (* Re-solving seeded with the full snapshot must be decisively
     cheaper: the learnt clauses carry the refutation. *)
  let r2, s2 = Sat.Solver.solve ~seed:sd f in
  (match r2 with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "seeded solve changed the verdict");
  check_bool "seeded solve is cheaper" true
    (s2.Sat.Solver.conflicts < s1.Sat.Solver.conflicts)

let test_seeded_unsat_proof_checks () =
  (* A seeded solve with a proof recorder must still produce a
     checkable DRAT stream: injected clauses are RUP-filtered and
     logged, so the checker never sees an unjustified step. *)
  let f = pigeonhole ~pigeons:6 ~holes:5 in
  let snap = ref None in
  (match fst (Sat.Solver.solve ~snapshot:(fun sd -> snap := Some sd) f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) is unsat");
  let sd = Option.get !snap in
  let proof = Sat.Proof.create () in
  (match fst (Sat.Solver.solve ~proof ~seed:sd f) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "seeded+proof solve changed the verdict");
  check_bool "seeded proof sealed" true (Sat.Proof.sealed proof);
  check_bool "seeded proof checks" true (Sat.Proof.check f proof)

let test_no_seed_no_snapshot_bit_identical () =
  (* Passing neither option must leave the trajectory untouched
     relative to the pre-warm-start solver — guarded here by comparing
     a solve against itself with an ignored snapshot. *)
  let f = random_formula 7 14 58 4 in
  let r1, s1 = Sat.Solver.solve f in
  let r2, s2 = Sat.Solver.solve ~snapshot:(fun _ -> ()) f in
  (match (r1, r2) with
   | Sat.Solver.Sat a, Sat.Solver.Sat b ->
     Alcotest.(check (array bool)) "same model" a b
   | Sat.Solver.Unsat, Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "snapshot observation changed the verdict");
  Alcotest.(check (triple int int int))
    "snapshot observation is free" (stats_triple s1) (stats_triple s2)

let prop_warm_start_sound =
  (* Soundness fuzz: capture a snapshot from a full solve, re-solve
     seeded, and demand (a) verdicts agree with brute force, (b) SAT
     models verify, (c) UNSAT solves under a recorder stay
     DRAT-checkable.  Never trust the warm answer blind. *)
  QCheck.Test.make ~name:"warm start: seeded solves stay sound" ~count:120
    QCheck.(
      quad (int_bound 10000000) (int_range 2 9) (int_range 1 38)
        (int_range 1 4))
    (fun (seed, nvars, nclauses, maxlen) ->
      let f = random_formula seed nvars nclauses maxlen in
      let expected = Option.is_some (brute_force f) in
      let snap = ref None in
      let cold = fst (Sat.Solver.solve ~snapshot:(fun s -> snap := Some s) f)
      in
      let cold_ok =
        match cold with
        | Sat.Solver.Sat m -> expected && Cnf.Formula.eval f m
        | Sat.Solver.Unsat -> not expected
        | Sat.Solver.Unknown -> false
      in
      match !snap with
      | None -> false
      | Some sd -> (
        cold_ok
        &&
        let proof = Sat.Proof.create () in
        match fst (Sat.Solver.solve ~proof ~seed:sd f) with
        | Sat.Solver.Sat m -> expected && Cnf.Formula.eval f m
        | Sat.Solver.Unsat ->
          (not expected) && Sat.Proof.sealed proof
          && Sat.Proof.check f proof
        | Sat.Solver.Unknown -> false))

let prop_warm_start_flat_sound =
  (* The same soundness contract through the flat path, with the
     snapshot crossing representations: captured from a Formula solve,
     seeded into a Flat solve of the same canonical instance. *)
  QCheck.Test.make ~name:"warm start: flat-seeded solves stay sound"
    ~count:120
    QCheck.(
      quad (int_bound 10000000) (int_range 2 9) (int_range 1 38)
        (int_range 1 4))
    (fun (seed, nvars, nclauses, maxlen) ->
      let f = random_formula seed nvars nclauses maxlen in
      let expected = Option.is_some (brute_force f) in
      let snap = ref None in
      ignore (Sat.Solver.solve ~snapshot:(fun s -> snap := Some s) f);
      match !snap with
      | None -> false
      | Some sd -> (
        match
          fst (Sat.Solver.solve_flat ~seed:sd (Cnf.Flat.of_formula f))
        with
        | Sat.Solver.Sat m -> expected && Cnf.Formula.eval f m
        | Sat.Solver.Unsat -> not expected
        | Sat.Solver.Unknown -> false))

let test_interrupted_snapshot_resumes () =
  (* A conflict-limited solve answers Unknown but still snapshots;
     resuming from that snapshot must preserve the verdict of a fresh
     unlimited solve. *)
  let f = pigeonhole ~pigeons:7 ~holes:6 in
  let snap = ref None in
  let limits = { Sat.Solver.no_limits with Sat.Solver.max_conflicts = Some 60 } in
  (match
     fst (Sat.Solver.solve ~limits ~snapshot:(fun s -> snap := Some s) f)
   with
   | Sat.Solver.Unknown -> ()
   | _ -> Alcotest.fail "expected the conflict limit to trip");
  let sd = Option.get !snap in
  check_bool "interrupted snapshot captured clauses" true
    (Array.length sd.Sat.Solver.seed_clauses > 0);
  match fst (Sat.Solver.solve ~seed:sd f) with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "resumed solve lost the refutation"

(* A header beyond the solver's literal encoding (2^30 - 1 variables)
   is refused before any table is allocated, instead of exhausting
   memory or wrapping a packed watcher. *)
let test_variable_limit () =
  let huge = { Cnf.Flat.num_vars = 1 lsl 30; offsets = [| 0 |]; lits = [||] } in
  match Sat.Solver.solve_flat huge with
  | _ -> Alcotest.fail "2^30 variables accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message names the limit"
      "Sat.Solver: 1073741824 variables exceed the solver's limit of \
       1073741823 (2^30 - 1)"
      msg

let suite =
  suite
  @ [
      ("variable limit raises before allocating", `Quick, test_variable_limit);
      ("solve/solve_flat golden trajectory", `Quick,
       test_golden_trajectories);
      ("incremental growth golden trajectory", `Quick,
       test_golden_incremental_growth);
      ("golden DRAT digests", `Quick, test_golden_proof_digests);
      ("snapshot fires, seed resumes", `Quick,
       test_snapshot_fires_and_seed_resumes);
      ("seeded UNSAT keeps DRAT checkable", `Quick,
       test_seeded_unsat_proof_checks);
      ("snapshot observation is free", `Quick,
       test_no_seed_no_snapshot_bit_identical);
      ("interrupted snapshot resumes", `Quick,
       test_interrupted_snapshot_resumes);
    ]
  @ qsuite [ prop_warm_start_sound; prop_warm_start_flat_sound ]
