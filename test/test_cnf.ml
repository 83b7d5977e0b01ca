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
(* XOR constraints through cnf2aig *)

let parity_clauses = Test_sat.xor_clauses

(* Every assignment of [f]'s variables, against the recovered circuit:
   [f] holds exactly when every output of [Aig.Sim.eval] on its PI
   values is 1 and each variable equals its [var_lit] in the simulated
   graph (a gate variable off its definition violates the definition's
   clauses).  A variable past the largest one that occurs has no
   [var_lit]: it is unconstrained.  Also equisatisfiability against
   [brute_force]. *)
let cnf2aig_agrees (r : Cnf.Cnf2aig.result) f =
  let n = f.Cnf.Formula.num_vars in
  let total = 1 lsl n in
  let words = (total + 63) / 64 in
  let bit row m =
    Int64.logand (Int64.shift_right_logical row.(m / 64) (m mod 64)) 1L <> 0L
  in
  let inputs =
    Array.map
      (fun v ->
        Array.init words (fun w ->
            let x = ref 0L in
            for b = 63 downto 0 do
              let m = (w * 64) + b in
              x := Int64.shift_left !x 1;
              if m < total && m land (1 lsl (v - 1)) <> 0 then
                x := Int64.logor !x 1L
            done;
            !x))
      r.Cnf.Cnf2aig.pi_vars
  in
  let sigs = Aig.Sim.run r.Cnf.Cnf2aig.graph ~inputs in
  let rows =
    Array.init (Array.length r.Cnf.Cnf2aig.var_lit - 1) (fun v ->
        Aig.Sim.lit_row sigs r.Cnf.Cnf2aig.var_lit.(v + 1))
  in
  let agree = ref true and circuit_sat = ref false in
  for m = 0 to total - 1 do
    let a = Array.init n (fun i -> m land (1 lsl i) <> 0) in
    let outputs =
      Aig.Sim.eval r.Cnf.Cnf2aig.graph
        (Array.map (fun v -> a.(v - 1)) r.Cnf.Cnf2aig.pi_vars)
    in
    let lifted = Array.for_all Fun.id (Array.mapi (fun v row -> bit row m = a.(v)) rows) in
    let holds = Array.for_all Fun.id outputs && lifted in
    if holds then circuit_sat := true;
    if Cnf.Formula.eval f a <> holds then agree := false
  done;
  !agree && !circuit_sat = Option.is_some (brute_force f)

let test_cnf2aig_xor_constraints () =
  (* x1..x4 xor to 1 and x3..x7 xor to 0, plus one ordinary clause:
     two XOR outputs beside the constraint output, every variable a PI. *)
  let f =
    Cnf.Formula.create ~num_vars:7
      (parity_clauses [| 1; 2; 3; 4 |] true
       @ parity_clauses [| 3; 4; 5; 6; 7 |] false
       @ [ [| -1; 7 |] ])
  in
  let r = Cnf.Cnf2aig.run f in
  check "xors" 2 r.Cnf.Cnf2aig.xors_recovered;
  check "no gates" 0 r.Cnf.Cnf2aig.gates_recovered;
  check "absorbed" 24 r.Cnf.Cnf2aig.clauses_absorbed;
  check "outputs" 3 (Aig.Graph.num_pos r.Cnf.Cnf2aig.graph);
  check_bool "agrees" true (cnf2aig_agrees r f);
  (* With no clause left over there is no constraint output. *)
  let only = Cnf.Formula.create ~num_vars:4 (parity_clauses [| 1; 2; 3; 4 |] false) in
  let r = Cnf.Cnf2aig.run only in
  check "one output" 1 (Aig.Graph.num_pos r.Cnf.Cnf2aig.graph);
  check_bool "agrees (xor only)" true (cnf2aig_agrees r only);
  (* One clause missing: no XOR, eight clauses become cones. *)
  let missing =
    Cnf.Formula.create ~num_vars:4 (List.tl (parity_clauses [| 1; 2; 3; 4 |] true))
  in
  check "missing clause" 0 (Cnf.Cnf2aig.run missing).Cnf.Cnf2aig.xors_recovered;
  (* A width-3 set is an XOR gate definition, and stays one. *)
  let gate = Cnf.Formula.create ~num_vars:3 (parity_clauses [| 1; 2; 3 |] true) in
  let r = Cnf.Cnf2aig.run gate in
  check "xor3 is a gate" 1 r.Cnf.Cnf2aig.gates_recovered;
  check "xor3 not a constraint" 0 r.Cnf.Cnf2aig.xors_recovered;
  (* Both parities over one set: two outputs that cannot both hold. *)
  let both =
    Cnf.Formula.create ~num_vars:5
      (parity_clauses [| 1; 2; 4; 5 |] true @ parity_clauses [| 1; 2; 4; 5 |] false)
  in
  let r = Cnf.Cnf2aig.run both in
  check "both parities" 2 r.Cnf.Cnf2aig.xors_recovered;
  check_bool "agrees (contradiction)" true (cnf2aig_agrees r both)

(* Random CNFs over at most 12 variables built from complete parity
   clause sets of width 2-6: both parities, shuffled literals, repeated
   clauses, one set in five missing a clause, and a few short random
   clauses beside them. *)
let random_parity_cnf seed =
  let rng = Aig.Rng.create seed in
  let nvars = 2 + Aig.Rng.int rng 11 in
  let clauses = ref [] in
  for _ = 1 to 1 + Aig.Rng.int rng 4 do
    let perm = Array.init nvars (fun i -> i + 1) in
    Aig.Rng.shuffle rng perm;
    let vars = Array.sub perm 0 (min nvars (2 + Aig.Rng.int rng 5)) in
    Array.sort compare vars;
    let set = Array.of_list (parity_clauses vars (Aig.Rng.bool rng)) in
    Array.iter (Aig.Rng.shuffle rng) set;
    let set = Array.to_list set in
    let set =
      if Aig.Rng.int rng 5 = 0 then
        let drop = Aig.Rng.int rng (List.length set) in
        List.filteri (fun i _ -> i <> drop) set
      else set
    in
    let set =
      if Aig.Rng.int rng 3 = 0 then
        Array.copy (List.nth set (Aig.Rng.int rng (List.length set))) :: set
      else set
    in
    clauses := set @ !clauses
  done;
  for _ = 1 to Aig.Rng.int rng 4 do
    clauses :=
      Array.init (1 + Aig.Rng.int rng 3) (fun _ ->
          let v = 1 + Aig.Rng.int rng nvars in
          if Aig.Rng.bool rng then v else -v)
      :: !clauses
  done;
  let clauses = Array.of_list !clauses in
  Aig.Rng.shuffle rng clauses;
  Cnf.Formula.create ~num_vars:nvars (Array.to_list clauses)

(* The generator reaches the detector: most of its formulas keep an
   XOR that no gate absorbs. *)
let test_cnf2aig_random_parity_recovered () =
  List.iter
    (fun advanced ->
      let hits =
        List.length
          (List.filter
             (fun seed ->
               (Cnf.Cnf2aig.run ~advanced (random_parity_cnf seed))
                 .Cnf.Cnf2aig.xors_recovered > 0)
             (List.init 200 Fun.id))
      in
      check_bool "XORs recovered in most formulas" true (hits > 100))
    [ false; true ]

let prop_cnf2aig_xor_recovery ~advanced =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "cnf2aig%s: XOR constraints recovered, circuit agrees"
         (if advanced then " advanced" else ""))
    ~count:100 (QCheck.int_bound 1000000) (fun seed ->
      let f = random_parity_cnf seed in
      cnf2aig_agrees (Cnf.Cnf2aig.run ~advanced f) f)

let suite =
  suite
  @ [ ("cnf2aig XOR constraints", `Quick, test_cnf2aig_xor_constraints);
      ("cnf2aig XORs in random parity CNFs", `Quick,
       test_cnf2aig_random_parity_recovered) ]
  @ qsuite
      [ prop_cnf2aig_xor_recovery ~advanced:false;
        prop_cnf2aig_xor_recovery ~advanced:true ]

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

(* --- Fingerprint: rewrite invariance, pool exactness, domains -------- *)

(* The reference normal form, built the slow way: [fp a = fp b] must
   hold exactly when [normal_form a = normal_form b]. *)
let normal_form (f : Cnf.Formula.t) =
  ( f.Cnf.Formula.num_vars,
    List.sort_uniq compare
      (List.filter_map
         (fun c ->
           let l = List.sort_uniq compare (Array.to_list c) in
           if List.exists (fun x -> List.mem (-x) l) l then None else Some l)
         (Array.to_list f.Cnf.Formula.clauses)) )

let top_var = (1 lsl 30) - 1

(* Variables from both ends of the range, so literals near
   ±(2^30 - 1) occur whenever [num_vars] reaches there. *)
let random_var rng nvars =
  if Aig.Rng.bool rng then 1 + Aig.Rng.int rng (min nvars 12)
  else max 1 (nvars - Aig.Rng.int rng 4)

let random_formula rng ~nvars ~nclauses ~width =
  let clauses =
    List.init nclauses (fun _ ->
        if nvars = 0 then [||]
        else
          Array.init (Aig.Rng.int rng (width + 1)) (fun _ ->
              let v = random_var rng nvars in
              if Aig.Rng.bool rng then v else -v))
  in
  Cnf.Formula.create ~num_vars:nvars clauses

(* Everything the normal form forgets: clause order, literal order,
   repeated literals, repeated clauses and added tautologies. *)
let rewrite rng (f : Cnf.Formula.t) =
  let nvars = f.Cnf.Formula.num_vars in
  let clauses = Array.map Array.copy f.Cnf.Formula.clauses in
  let extra = ref [] in
  Array.iter
    (fun c ->
      if Array.length c > 0 && Aig.Rng.int rng 4 = 0 then
        extra := Array.append c [| c.(Aig.Rng.int rng (Array.length c)) |]
                 :: !extra;
      if Aig.Rng.int rng 5 = 0 then extra := Array.copy c :: !extra)
    clauses;
  if nvars > 0 then
    for _ = 1 to Aig.Rng.int rng 3 do
      let v = random_var rng nvars in
      let w = random_var rng nvars in
      extra := [| v; w; -v |] :: !extra
    done;
  let all = Array.append clauses (Array.of_list !extra) in
  Array.iter (Aig.Rng.shuffle rng) all;
  Aig.Rng.shuffle rng all;
  Cnf.Formula.create ~num_vars:nvars (Array.to_list all)

let prop_fingerprint_rewrites =
  QCheck.Test.make ~name:"fingerprint: invariant under normal-form rewrites"
    ~count:500
    QCheck.(pair (int_bound 10000000) (int_range 0 40))
    (fun (seed, nclauses) ->
      let rng = Aig.Rng.create seed in
      let nvars =
        match Aig.Rng.int rng 4 with
        | 0 -> 0
        | 1 -> top_var
        | _ -> 1 + Aig.Rng.int rng 12
      in
      let a = random_formula rng ~nvars ~nclauses ~width:6 in
      let b = rewrite rng a in
      let fa = fp a and fb = fp b in
      Cnf.Fingerprint.equal fa fb
      && Cnf.Fingerprint.to_hex fa = Cnf.Fingerprint.to_hex fb
      && fa.Cnf.Fingerprint.num_clauses = List.length (snd (normal_form a)))

let test_fingerprint_pool_exact () =
  (* Formulas of 300-600 clauses over few variables repeat many clauses,
     so the dedupe table grows past its first size and its probes run
     into occupied slots.  Each base comes with variants that keep the
     normal form (a rewrite) and variants that change it or may not (a
     flipped sign, a dropped clause, one more variable); the reference
     normal form decides which pairs must match. *)
  let rng = Aig.Rng.create 20261018 in
  let pool = ref [] in
  for _ = 1 to 12 do
    let nvars = 6 + Aig.Rng.int rng 5 in
    let nclauses = 300 + Aig.Rng.int rng 300 in
    let a = random_formula rng ~nvars ~nclauses ~width:4 in
    let cl = a.Cnf.Formula.clauses in
    let flip =
      let c = Array.map Array.copy cl in
      let i = Aig.Rng.int rng (Array.length c) in
      if Array.length c.(i) > 0 then c.(i).(0) <- - c.(i).(0);
      { a with Cnf.Formula.clauses = c }
    in
    let drop =
      let i = Aig.Rng.int rng (Array.length cl) in
      { a with
        Cnf.Formula.clauses =
          Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list cl)) }
    in
    let wider = { a with Cnf.Formula.num_vars = nvars + 1 } in
    pool := a :: rewrite rng a :: flip :: rewrite rng flip :: drop :: wider
            :: !pool
  done;
  let pool = Array.of_list !pool in
  let keys = Array.map normal_form pool and fps = Array.map fp pool in
  let same = ref 0 in
  Array.iteri
    (fun i ki ->
      Array.iteri
        (fun j kj ->
          let expect = ki = kj in
          if expect then incr same;
          if Cnf.Fingerprint.equal fps.(i) fps.(j) <> expect then
            Alcotest.failf "pool %d vs %d: normal forms %s, fingerprints %s"
              i j
              (if expect then "equal" else "differ")
              (if expect then "differ" else "equal"))
        keys)
    keys;
  (* every formula matches itself, and each base and each flip its
     rewrite, both ways round *)
  check_bool "rewrites matched" true (!same >= Array.length pool + 48)

let test_fingerprint_two_domains () =
  (* Each domain normalizes in scratch of its own: two domains
     fingerprinting at once give the sequential answers. *)
  let rng = Aig.Rng.create 7 in
  let formulas =
    List.init 40 (fun i ->
        Cnf.Flat.of_formula
          (random_formula rng ~nvars:(1 + Aig.Rng.int rng 30)
             ~nclauses:(10 * i) ~width:5))
  in
  let expect = List.map Cnf.Fingerprint.of_flat formulas in
  let work () =
    let ok = ref true in
    for _ = 1 to 25 do
      ok :=
        !ok
        && List.for_all2 Cnf.Fingerprint.equal expect
             (List.map Cnf.Fingerprint.of_flat formulas)
    done;
    !ok
  in
  let others = List.init 2 (fun _ -> Domain.spawn work) in
  List.iteri
    (fun i d -> check_bool (Printf.sprintf "domain %d" i) true (Domain.join d))
    others

let suite =
  suite
  @ [
      ("fingerprint pool exactness", `Quick, test_fingerprint_pool_exact);
      ("fingerprint from two domains", `Quick, test_fingerprint_two_domains);
    ]
  @ qsuite [ prop_fingerprint_rewrites ]

let test_flat_header_count_not_trusted () =
  (* A header may claim a million clauses over a few bytes; the parser
     must not size its clause index from the claim. *)
  let s = "p cnf 3 1000000\n1 -2 0\n" in
  (* Each parse runs alone on a fresh domain.  The allocation counters
     are per domain, and a fresh one has no finalisers or leftovers of
     earlier tests to run inside the window, so the count is the
     parser's own (about 250 bytes); the header's claim would cost
     8 MB. *)
  let parse () =
    Domain.join
      (Domain.spawn (fun () ->
           let before = Gc.allocated_bytes () in
           let r =
             match Cnf.Dimacs.read_flat_string s with
             | _ -> None
             | exception Cnf.Dimacs.Parse_error m -> Some m
           in
           (Gc.allocated_bytes () -. before, r)))
  in
  let runs = List.init 3 (fun _ -> parse ()) in
  List.iter
    (fun (_, r) ->
      match r with
      | None -> Alcotest.fail "count mismatch accepted"
      | Some m ->
        Alcotest.(check string)
          "error" "clause count mismatch: header 1000000, found 1" m)
    runs;
  List.iter
    (fun (d, _) ->
      check_bool "allocates by the input, not the header" true (d < 16384.))
    runs

let suite =
  suite
  @ [ ("flat parser ignores the header's clause count for sizing", `Quick,
       test_flat_header_count_not_trusted) ]

let prop_sort_uniq_slice =
  QCheck.Test.make ~name:"flat: sort_uniq_slice == List.sort_uniq" ~count:500
    QCheck.(triple (int_bound 10000000) (int_range 0 80) (int_range 0 5))
    (fun (seed, n, pos) ->
      let rng = Aig.Rng.create seed in
      let range = 1 + Aig.Rng.int rng 100 in
      let a = Array.init (pos + n + 2) (fun _ -> Aig.Rng.int rng range) in
      let before = Array.copy a in
      let expect = List.sort_uniq compare (Array.to_list (Array.sub a pos n)) in
      let m = Cnf.Flat.sort_uniq_slice a pos n in
      Array.to_list (Array.sub a pos m) = expect
      && Array.sub a 0 pos = Array.sub before 0 pos
      && Array.sub a (pos + n) 2 = Array.sub before (pos + n) 2)

let suite = suite @ qsuite [ prop_sort_uniq_slice ]
