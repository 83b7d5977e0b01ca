(* Differential fuzzing of the CDCL core: 500 random CNFs (up to 14
   variables, mixed clause lengths, seeded via Aig.Rng) cross-checked
   against brute-force enumeration.  Models are validated with
   Cnf.Formula.eval, UNSAT answers with Sat.Proof.check, and the cases
   cycle through both branching heuristics and both restart schemes. *)

let check_bool = Alcotest.(check bool)

let brute_force_sat f =
  let n = f.Cnf.Formula.num_vars in
  assert (n <= 14);
  let rec try_assignment m =
    m < 1 lsl n
    && (Cnf.Formula.eval f (Array.init n (fun i -> m land (1 lsl i) <> 0))
        || try_assignment (m + 1))
  in
  try_assignment 0

let random_formula rng =
  let nvars = 2 + Aig.Rng.int rng 13 in
  let nclauses = 1 + Aig.Rng.int rng (5 * nvars) in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Aig.Rng.int rng 5 in
        Array.init len (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v))
  in
  Cnf.Formula.create ~num_vars:nvars clauses

let configs =
  [|
    (`Evsids, `Luby, "evsids/luby");
    (`Evsids, `Glucose, "evsids/glucose");
    (`Lrb, `Luby, "lrb/luby");
    (`Lrb, `Glucose, "lrb/glucose");
  |]

let test_fuzz_vs_brute_force () =
  let rng = Aig.Rng.create 20250805 in
  for i = 1 to 500 do
    let f = random_formula rng in
    let expected = brute_force_sat f in
    let heuristic, restarts, cfg = configs.(i mod Array.length configs) in
    let proof = Sat.Proof.create () in
    match fst (Sat.Solver.solve ~proof ~heuristic ~restarts f) with
    | Sat.Solver.Sat m ->
      if not expected then
        Alcotest.failf "case %d (%s): solver SAT, brute force UNSAT" i cfg;
      if not (Cnf.Formula.eval f m) then
        Alcotest.failf "case %d (%s): model does not satisfy" i cfg
    | Sat.Solver.Unsat ->
      if expected then
        Alcotest.failf "case %d (%s): solver UNSAT, brute force SAT" i cfg;
      if not (Sat.Proof.check f proof) then
        Alcotest.failf "case %d (%s): DRAT proof fails to validate" i cfg
    | Sat.Solver.Unknown ->
      Alcotest.failf "case %d (%s): unexpected Unknown" i cfg
  done;
  check_bool "fuzz 500/500" true true

let test_fuzz_incremental_agreement () =
  (* A smaller incremental sweep: batch answer, incremental answer and
     incremental-under-assumptions answers must agree with brute
     force on the strengthened formula. *)
  let rng = Aig.Rng.create 777 in
  for i = 1 to 100 do
    let f = random_formula rng in
    let nvars = f.Cnf.Formula.num_vars in
    let s = Sat.Solver.Incremental.create () in
    Sat.Solver.Incremental.add_formula s f;
    while Sat.Solver.Incremental.num_vars s < nvars do
      ignore (Sat.Solver.Incremental.new_var s)
    done;
    let assumptions =
      Array.init
        (1 + Aig.Rng.int rng 3)
        (fun _ ->
          let v = 1 + Aig.Rng.int rng nvars in
          if Aig.Rng.bool rng then v else -v)
    in
    let f' =
      Cnf.Formula.add_clauses f
        (Array.to_list (Array.map (fun l -> [| l |]) assumptions))
    in
    let expected = brute_force_sat f' in
    match fst (Sat.Solver.Incremental.solve ~assumptions s) with
    | Sat.Solver.Sat m ->
      if not expected then
        Alcotest.failf "case %d: incremental SAT, brute force UNSAT" i;
      if not (Cnf.Formula.eval f' (Array.sub m 0 nvars)) then
        Alcotest.failf "case %d: incremental model violates assumptions" i
    | Sat.Solver.Unsat ->
      if expected then
        Alcotest.failf "case %d: incremental UNSAT, brute force SAT" i
    | Sat.Solver.Unknown -> Alcotest.failf "case %d: unexpected Unknown" i
  done;
  check_bool "incremental fuzz 100/100" true true

(* Formulas for the level-0 Gauss–Jordan pass: XORs of width 2-7 over
   at most 12 variables, each expanded into its clause set with the
   literals of every clause shuffled, mixed with random 2- and
   3-clauses, the whole clause list shuffled.  Half the cases are
   planted (every XOR and every random clause agrees with a hidden
   assignment, so the formula is SAT); the rest draw each right-hand
   side at random.  One XOR in ten loses a clause (it is no XOR any
   more) and one in ten has a clause repeated. *)
let xor_formula rng =
  let nvars = 3 + Aig.Rng.int rng 10 in
  let planted = Aig.Rng.bool rng in
  let hidden = Array.init nvars (fun _ -> Aig.Rng.bool rng) in
  let clauses = ref [] in
  for _ = 1 to 1 + Aig.Rng.int rng nvars do
    let perm = Array.init nvars (fun v -> v + 1) in
    Aig.Rng.shuffle rng perm;
    let vars = Array.sub perm 0 (min nvars (2 + Aig.Rng.int rng 6)) in
    let rhs =
      if planted then Array.fold_left (fun p v -> p <> hidden.(v - 1)) false vars
      else Aig.Rng.bool rng
    in
    let k = Array.length vars in
    let xor = ref [] in
    for m = 0 to (1 lsl k) - 1 do
      let trues = ref 0 in
      Array.iteri (fun i _ -> if m land (1 lsl i) = 0 then incr trues) vars;
      if (!trues land 1 = 1) <> rhs then begin
        let c = Array.mapi (fun i v -> if m land (1 lsl i) = 0 then -v else v) vars in
        Aig.Rng.shuffle rng c;
        xor := c :: !xor
      end
    done;
    let xor =
      match Aig.Rng.int rng 10 with
      | 0 -> List.tl !xor
      | 1 -> List.hd !xor :: !xor
      | _ -> !xor
    in
    clauses := xor @ !clauses
  done;
  let rec random_clause () =
    let c =
      Array.init (2 + Aig.Rng.int rng 2) (fun _ ->
          let v = 1 + Aig.Rng.int rng nvars in
          if Aig.Rng.bool rng then v else -v)
    in
    if planted && not (Array.exists (fun l -> hidden.(abs l - 1) = (l > 0)) c)
    then random_clause ()
    else c
  in
  for _ = 1 to Aig.Rng.int rng (2 * nvars) do
    clauses := random_clause () :: !clauses
  done;
  let clauses = Array.of_list !clauses in
  Aig.Rng.shuffle rng clauses;
  (planted, Cnf.Formula.create ~num_vars:nvars (Array.to_list clauses))

(* Every verdict of the pass's route ([solve]) and of the proof route
   ([solve ~proof], pass skipped) matches brute force; models satisfy
   the input and every UNSAT proof checks.  The counters show the pass
   both derived clauses and refuted systems along the way. *)
let test_fuzz_xor_pass () =
  let rng = Aig.Rng.create 20261017 in
  let derived = ref 0 and refuted = ref 0 in
  for i = 1 to 500 do
    let planted, f = xor_formula rng in
    let expected = brute_force_sat f in
    if planted && not expected then
      Alcotest.failf "case %d: planted formula is UNSAT" i;
    let heuristic, restarts, cfg = configs.(i mod Array.length configs) in
    let check route = function
      | Sat.Solver.Sat m ->
        if not expected then
          Alcotest.failf "case %d (%s, %s): SAT, brute force UNSAT" i cfg route;
        if not (Cnf.Formula.eval f m) then
          Alcotest.failf "case %d (%s, %s): model does not satisfy" i cfg route
      | Sat.Solver.Unsat ->
        if expected then
          Alcotest.failf "case %d (%s, %s): UNSAT, brute force SAT" i cfg route
      | Sat.Solver.Unknown ->
        Alcotest.failf "case %d (%s, %s): unexpected Unknown" i cfg route
    in
    let r, st = Sat.Solver.solve ~heuristic ~restarts f in
    check "pass" r;
    if st.Sat.Solver.xor_derived > 0 then incr derived;
    if r = Sat.Solver.Unsat && st.Sat.Solver.conflicts = 0
       && st.Sat.Solver.xors >= 2
    then incr refuted;
    let proof = Sat.Proof.create () in
    let r, st = Sat.Solver.solve ~proof ~heuristic ~restarts f in
    check "proof" r;
    if st.Sat.Solver.xors <> 0 then
      Alcotest.failf "case %d: the pass ran under a proof" i;
    if r = Sat.Solver.Unsat && not (Sat.Proof.check f proof) then
      Alcotest.failf "case %d (%s): DRAT proof fails to validate" i cfg
  done;
  check_bool "the pass derived clauses" true (!derived > 50);
  check_bool "the pass refuted systems" true (!refuted > 50)

let random_assumptions rng nvars =
  Array.init
    (1 + Aig.Rng.int rng 3)
    (fun _ ->
      let v = 1 + Aig.Rng.int rng nvars in
      if Aig.Rng.bool rng then v else -v)

(* Near-threshold random 3-SAT, too large for brute force: these cases
   generate enough long learnt clauses to overflow a small learnt cap
   and force arena compactions.  Correctness is still fully checked —
   models via eval, Unsat via the DRAT log. *)
let random_hard_formula rng =
  let nvars = 16 + Aig.Rng.int rng 10 in
  let nclauses = int_of_float (4.3 *. float_of_int nvars) in
  let clauses =
    List.init nclauses (fun _ ->
        Array.init 3 (fun _ ->
            let v = 1 + Aig.Rng.int rng nvars in
            if Aig.Rng.bool rng then v else -v))
  in
  Cnf.Formula.create ~num_vars:nvars clauses

let with_units f assumptions =
  Cnf.Formula.add_clauses f
    (Array.to_list (Array.map (fun l -> [| l |]) assumptions))

(* A tiny learnt-database cap: reduce-DB rounds, and hence arena
   compactions, every few conflicts. *)
let tiny_reduce =
  { Sat.Solver.default_config with reduce_base = 8; reduce_inc = 4 }

let test_fuzz_arena_compaction () =
  (* Incremental sessions driven with [tiny_reduce], so queries trigger
     many reduce-DB rounds and hence arena compactions; clauses arrive
     in two chunks with a solve in between, so later clauses land in an
     already-compacted arena.  Every answer is checked against brute
     force, one DRAT log spans the whole session, and when the final
     assumption-free solve answers Unsat the log must validate
     end-to-end against the full formula. *)
  let rng = Aig.Rng.create 424242 in
  let total_reduces = ref 0 in
  let proofs_checked = ref 0 in
  for i = 1 to 80 do
    (* Every fourth case is a brute-forceable small formula; the rest
       are larger near-threshold instances that actually stress the
       compactor. *)
    let small = i mod 4 = 0 in
    let f = if small then random_formula rng else random_hard_formula rng in
    let nvars = f.Cnf.Formula.num_vars in
    let clauses = f.Cnf.Formula.clauses in
    let half = Array.length clauses / 2 in
    let s = Sat.Solver.Incremental.create () in
    let proof = Sat.Proof.create () in
    let solve assumptions =
      Sat.Solver.Incremental.solve ~config:tiny_reduce ~proof ~assumptions s
    in
    Array.iteri
      (fun k c -> if k < half then Sat.Solver.Incremental.add_clause s c)
      clauses;
    while Sat.Solver.Incremental.num_vars s < nvars do
      ignore (Sat.Solver.Incremental.new_var s)
    done;
    (* Mid-session query on the half-loaded formula. *)
    let a0 = random_assumptions rng nvars in
    let f_half =
      Cnf.Formula.create ~num_vars:nvars
        (List.filteri (fun k _ -> k < half) (Array.to_list clauses))
    in
    (match fst (solve a0) with
     | Sat.Solver.Sat m ->
       if not (Cnf.Formula.eval (with_units f_half a0) (Array.sub m 0 nvars))
       then Alcotest.failf "case %d: half-formula model invalid" i
     | Sat.Solver.Unsat ->
       if small && brute_force_sat (with_units f_half a0) then
         Alcotest.failf "case %d: half-formula UNSAT but brute force SAT" i
     | Sat.Solver.Unknown -> Alcotest.failf "case %d: unexpected Unknown" i);
    Array.iteri
      (fun k c -> if k >= half then Sat.Solver.Incremental.add_clause s c)
      clauses;
    for q = 1 to 2 do
      let a = random_assumptions rng nvars in
      let f' = with_units f a in
      match fst (solve a) with
      | Sat.Solver.Sat m ->
        if not (Cnf.Formula.eval f' (Array.sub m 0 nvars)) then
          Alcotest.failf "case %d query %d: model invalid" i q
      | Sat.Solver.Unsat ->
        if small && brute_force_sat f' then
          Alcotest.failf "case %d query %d: UNSAT but brute force SAT" i q;
        let core = Sat.Solver.Incremental.last_core s in
        if
          not
            (Array.for_all (fun l -> Array.exists (( = ) l) a) core)
        then Alcotest.failf "case %d query %d: core not within assumptions" i q
      | Sat.Solver.Unknown -> Alcotest.failf "case %d query %d: Unknown" i q
    done;
    (* Final assumption-free solve: seals the proof when Unsat. *)
    let result, st = solve [||] in
    total_reduces := !total_reduces + st.Sat.Solver.reduces;
    (match result with
     | Sat.Solver.Sat m ->
       if small && not (brute_force_sat f) then
         Alcotest.failf "case %d: final SAT but brute force UNSAT" i;
       if not (Cnf.Formula.eval f (Array.sub m 0 nvars)) then
         Alcotest.failf "case %d: final model invalid" i
     | Sat.Solver.Unsat ->
       if small && brute_force_sat f then
         Alcotest.failf "case %d: final UNSAT but brute force SAT" i;
       if not (Sat.Proof.check f proof) then
         Alcotest.failf "case %d: session DRAT log fails to validate" i;
       incr proofs_checked
     | Sat.Solver.Unknown -> Alcotest.failf "case %d: final Unknown" i)
  done;
  check_bool "some sessions ended Unsat with a checked proof" true
    (!proofs_checked > 0);
  check_bool "reduce-DB compactions were exercised" true (!total_reduces > 0)

let test_php_incremental_compaction_directed () =
  (* Deterministic heavy case: php(6,5) under assumptions with a tiny
     learnt cap guarantees several compactions in one session, with the
     sealed DRAT log checked end-to-end. *)
  let f = Workloads.Satcomp.pigeonhole ~pigeons:6 ~holes:5 in
  let s = Sat.Solver.Incremental.create () in
  Sat.Solver.Incremental.add_formula s f;
  let proof = Sat.Proof.create () in
  let solve assumptions =
    Sat.Solver.Incremental.solve ~config:tiny_reduce ~proof ~assumptions s
  in
  (* Pigeon 1 in hole 1 — still unsatisfiable overall. *)
  (match fst (solve [| 1 |]) with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) under assumption must be Unsat");
  let result, st = solve [||] in
  (match result with
   | Sat.Solver.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) must be Unsat");
  check_bool "multiple compactions in one session" true
    (st.Sat.Solver.reduces >= 2);
  check_bool "php session proof validates" true (Sat.Proof.check f proof)

let suite =
  [
    ("fuzz: 500 random CNFs vs brute force", `Quick,
     test_fuzz_vs_brute_force);
    ("fuzz: 500 XOR formulas through the Gauss-Jordan pass", `Quick,
     test_fuzz_xor_pass);
    ("fuzz: incremental agreement under assumptions", `Quick,
     test_fuzz_incremental_agreement);
    ("fuzz: arena compaction under incremental assumptions", `Quick,
     test_fuzz_arena_compaction);
    ("directed: php compaction session with DRAT", `Quick,
     test_php_incremental_compaction_directed);
  ]
