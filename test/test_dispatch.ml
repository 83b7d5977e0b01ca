(* Tests for the learned-dispatch subsystem: feature extraction, the
   JSONL trace log, and the policy's train/decide/serialize cycle. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let features f = Dispatch.Features.of_flat (Cnf.Flat.of_formula f)

let feature_index name =
  let idx = ref (-1) in
  Array.iteri
    (fun i n -> if n = name then idx := i)
    Dispatch.Features.names;
  if !idx < 0 then Alcotest.failf "unknown feature %s" name;
  !idx

(* ------------------------------------------------------------------ *)
(* Features *)

let test_feature_layout () =
  check "dim split" Dispatch.Features.dim
    (Dispatch.Features.base_dim + Dispatch.Features.embedding_dim);
  check "one name per coordinate" Dispatch.Features.dim
    (Array.length Dispatch.Features.names)

let test_feature_values () =
  (* Hand-checked statistics of a 3-clause formula. *)
  let f =
    { Cnf.Formula.num_vars = 4;
      clauses = [| [| 1; 2 |]; [| -1; -2 |]; [| 1; -2; 3 |] |] }
  in
  let x = features f in
  let at name = x.(feature_index name) in
  Alcotest.(check (float 1e-12)) "binary fraction" (2.0 /. 3.0)
    (at "frac_binary");
  Alcotest.(check (float 1e-12)) "ternary fraction" (1.0 /. 3.0)
    (at "frac_ternary");
  Alcotest.(check (float 1e-12)) "unit fraction" 0.0 (at "frac_unit");
  Alcotest.(check (float 1e-12)) "mean length" (7.0 /. 3.0)
    (at "mean_clause_len");
  (* 4 positive literals out of 7. *)
  Alcotest.(check (float 1e-12)) "positive balance" (4.0 /. 7.0)
    (at "frac_pos_lits");
  (* Variable 4 never appears. *)
  Alcotest.(check (float 1e-12)) "unused vars" 0.25 (at "frac_unused_vars");
  (* Only [-1;-2] has <= 1 positive literal. *)
  Alcotest.(check (float 1e-12)) "horn fraction" (1.0 /. 3.0) (at "frac_horn");
  (* Embedding slots of a plain CNF are zero. *)
  for i = Dispatch.Features.base_dim to Dispatch.Features.dim - 1 do
    Alcotest.(check (float 0.0)) "embedding slot" 0.0 x.(i)
  done

let test_feature_determinism () =
  let f = Workloads.Satcomp.pigeonhole ~pigeons:5 ~holes:4 in
  check_bool "bitwise deterministic" true
    (features f = features f)

let random_formula rng =
  let nv = 1 + Aig.Rng.int rng 20 in
  let nc = Aig.Rng.int rng 40 in
  let clauses =
    Array.init nc (fun _ ->
        let len = 1 + Aig.Rng.int rng 6 in
        Array.init len (fun _ ->
            let v = 1 + Aig.Rng.int rng nv in
            if Aig.Rng.bool rng then v else -v))
  in
  { Cnf.Formula.num_vars = nv; clauses }

let test_with_embedding () =
  let f = random_formula (Aig.Rng.create 5) in
  let base = features f in
  let emb = Array.init 7 (fun i -> float_of_int (i + 1)) in
  let x = Dispatch.Features.with_embedding base emb in
  check_bool "base untouched" true
    (base.(Dispatch.Features.base_dim) = 0.0);
  for i = 0 to Dispatch.Features.base_dim - 1 do
    Alcotest.(check (float 0.0)) "base copied" base.(i) x.(i)
  done;
  for i = 0 to 6 do
    Alcotest.(check (float 0.0)) "slot written" (float_of_int (i + 1))
      x.(Dispatch.Features.base_dim + i)
  done;
  for i = 7 to Dispatch.Features.embedding_dim - 1 do
    Alcotest.(check (float 0.0)) "tail zero" 0.0
      x.(Dispatch.Features.base_dim + i)
  done

(* ------------------------------------------------------------------ *)
(* Tracelog *)

let sample_entry ?(solve_ms = 12.345678901234567) ?(simplify = false)
    ?(lanes = 1) ?(cube = 0) ?(outcome = "sat") ?(features = [| 0.1; -2.5 |])
    () =
  { Dispatch.Tracelog.fingerprint = "deadbeef00";
    features;
    lanes;
    simplify;
    cube_trigger = cube;
    outcome;
    conflicts = 4242;
    solve_ms;
    wall_ms = solve_ms +. 0.125;
    decided = simplify }

let entry_equal (a : Dispatch.Tracelog.entry) (b : Dispatch.Tracelog.entry) =
  a.fingerprint = b.fingerprint
  && a.features = b.features
  && a.lanes = b.lanes && a.simplify = b.simplify
  && a.cube_trigger = b.cube_trigger
  && a.outcome = b.outcome && a.conflicts = b.conflicts
  && a.solve_ms = b.solve_ms && a.wall_ms = b.wall_ms
  && a.decided = b.decided

let test_trace_line_roundtrip () =
  let cases =
    [
      sample_entry ();
      sample_entry ~solve_ms:0.1 ~simplify:true ~lanes:4 ~cube:2000
        ~outcome:"timeout" ();
      sample_entry ~solve_ms:1e-300 ~outcome:"failed"
        ~features:[| 1.0 /. 3.0; 1e17; -0.0 |] ();
      sample_entry ~solve_ms:987654321.123 ~outcome:"unsat" ~features:[||] ();
    ]
  in
  List.iter
    (fun e ->
      let line = Dispatch.Tracelog.entry_to_line e in
      check_bool "single line" false (String.contains line '\n');
      check_bool "exact round-trip" true
        (entry_equal e (Dispatch.Tracelog.entry_of_line line)))
    cases;
  (* Non-finite floats are written as 0 (documented), not emitted as
     JSON-invalid nan/inf tokens. *)
  let e =
    Dispatch.Tracelog.entry_of_line
      (Dispatch.Tracelog.entry_to_line
         (sample_entry ~solve_ms:Float.nan ~features:[| Float.infinity |] ()))
  in
  Alcotest.(check (float 0.0)) "nan sanitized" 0.0 e.solve_ms;
  Alcotest.(check (float 0.0)) "inf sanitized" 0.0 e.features.(0)

let test_trace_malformed_line () =
  Alcotest.check_raises "garbage rejected"
    (Failure "Tracelog: missing field \"decided\"") (fun () ->
      ignore (Dispatch.Tracelog.entry_of_line "{\"not\": \"a trace\"}"))

let with_tmp_path f =
  let path = Filename.temp_file "eda4sat_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".1") with Sys_error _ -> ())
    (fun () -> f path)

let test_trace_file_roundtrip () =
  with_tmp_path (fun path ->
      let t = Dispatch.Tracelog.open_file path in
      let entries =
        List.init 25 (fun i ->
            sample_entry ~solve_ms:(float_of_int i /. 7.0)
              ~simplify:(i mod 2 = 0) ~lanes:(1 lsl (i mod 3)) ())
      in
      List.iter (Dispatch.Tracelog.append t) entries;
      Dispatch.Tracelog.close t;
      check "entries written" 25 (Dispatch.Tracelog.entries_written t);
      check "none dropped" 0 (Dispatch.Tracelog.dropped t);
      let back = Dispatch.Tracelog.read_file path in
      check "all read back" 25 (List.length back);
      List.iter2
        (fun a b -> check_bool "entry preserved" true (entry_equal a b))
        entries back)

let test_trace_rotation () =
  with_tmp_path (fun path ->
      (* max_bytes clamps to 4096; each entry is ~150 bytes, so 200
         entries force several rotations.  The live file must stay
         within the bound (plus one entry) and the previous generation
         must exist. *)
      let t = Dispatch.Tracelog.open_file ~max_bytes:1 path in
      for i = 1 to 200 do
        Dispatch.Tracelog.append t
          (sample_entry ~solve_ms:(float_of_int i) ())
      done;
      Dispatch.Tracelog.close t;
      check "all accounted" 200 (Dispatch.Tracelog.entries_written t);
      check_bool "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      let live = (Unix.stat path).Unix.st_size in
      check_bool
        (Printf.sprintf "live file bounded (%d bytes)" live)
        true
        (live <= 4096 + 512);
      (* Both generations still parse, and together hold a suffix of
         what was written. *)
      let n =
        List.length (Dispatch.Tracelog.read_file path)
        + List.length (Dispatch.Tracelog.read_file (path ^ ".1"))
      in
      check_bool "suffix retained" true (n > 0 && n <= 200))

(* ------------------------------------------------------------------ *)
(* Policy *)

let random_features rng =
  Array.init Dispatch.Features.dim (fun _ -> Aig.Rng.gaussian rng)

let test_policy_untrained_is_static () =
  let p = Dispatch.Policy.create () in
  let rng = Aig.Rng.create 3 in
  for _ = 1 to 10 do
    let d = Dispatch.Policy.decide p (random_features rng) in
    check "lanes" Dispatch.Policy.static_default.lanes d.lanes;
    check_bool "simplify" Dispatch.Policy.static_default.simplify d.simplify;
    check_bool "cube" true (d.cube_trigger = None);
    check_bool "no hardness claim" true (Float.is_nan d.predicted_ms)
  done

(* Synthetic trace: simplify solves everything in 1 ms, plain direct
   takes 400 ms.  Lanes and cube stay at their static values, so those
   heads only ever see one class. *)
let simplify_wins_entries rng n =
  List.init n (fun i ->
      let simplify = i mod 2 = 0 in
      sample_entry
        ~features:(random_features rng)
        ~simplify
        ~solve_ms:(if simplify then 1.0 else 400.0)
        ())

let test_policy_learns_simplify () =
  let rng = Aig.Rng.create 11 in
  let p = Dispatch.Policy.create ~hidden:[| 16 |] () in
  let loss =
    Dispatch.Policy.train ~epochs:150 p (simplify_wins_entries rng 60)
  in
  check_bool (Printf.sprintf "training converged (loss %.3f)" loss) true
    (Float.is_finite loss);
  for _ = 1 to 10 do
    let d = Dispatch.Policy.decide p (random_features rng) in
    check_bool "prefers simplify" true d.simplify;
    (* Unvisited classes can never be recommended. *)
    check "lanes stay static" 1 d.lanes;
    check_bool "cube stays off" true (d.cube_trigger = None);
    check_bool "hardness is now predicted" true (Float.is_finite d.predicted_ms)
  done

let test_policy_save_load_exact () =
  let rng = Aig.Rng.create 19 in
  let p = Dispatch.Policy.create ~hidden:[| 12 |] () in
  ignore (Dispatch.Policy.train ~epochs:40 p (simplify_wins_entries rng 30));
  let s = Dispatch.Policy.save_string p in
  let q = Dispatch.Policy.load_string s in
  check_bool "re-serialization identical" true
    (Dispatch.Policy.save_string q = s);
  check_bool "visits preserved" true
    (Dispatch.Policy.visits p = Dispatch.Policy.visits q);
  for _ = 1 to 20 do
    let x = random_features rng in
    check_bool "raw heads bitwise equal" true
      (Dispatch.Policy.predict p x = Dispatch.Policy.predict q x);
    let dp = Dispatch.Policy.decide p x and dq = Dispatch.Policy.decide q x in
    check_bool "decisions identical" true
      (dp.lanes = dq.lanes && dp.simplify = dq.simplify
      && dp.cube_trigger = dq.cube_trigger
      && (dp.predicted_ms = dq.predicted_ms
         || (Float.is_nan dp.predicted_ms && Float.is_nan dq.predicted_ms)))
  done

let test_policy_rejects_garbage () =
  check_bool "bad magic" true
    (match Dispatch.Policy.load_string "not a model\n" with
    | exception Failure _ -> true
    | _ -> false);
  check_bool "truncated" true
    (match Dispatch.Policy.load_string "eda4sat-dispatch-policy 1\n" with
    | exception Failure _ -> true
    | _ -> false)

let test_policy_train_validates () =
  let p = Dispatch.Policy.create () in
  check_bool "empty entries rejected" true
    (match Dispatch.Policy.train p [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "bad feature dimension rejected" true
    (match
       Dispatch.Policy.train p [ sample_entry ~features:[| 1.0 |] () ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    ("feature layout", `Quick, test_feature_layout);
    ("feature values", `Quick, test_feature_values);
    ("feature determinism", `Quick, test_feature_determinism);
    ("embedding slots", `Quick, test_with_embedding);
    ("trace line round-trip", `Quick, test_trace_line_roundtrip);
    ("trace malformed line", `Quick, test_trace_malformed_line);
    ("trace file round-trip", `Quick, test_trace_file_roundtrip);
    ("trace rotation bound", `Quick, test_trace_rotation);
    ("untrained policy is static", `Quick, test_policy_untrained_is_static);
    ("policy learns simplify", `Quick, test_policy_learns_simplify);
    ("policy save/load bit-exact", `Quick, test_policy_save_load_exact);
    ("policy rejects garbage", `Quick, test_policy_rejects_garbage);
    ("policy train validation", `Quick, test_policy_train_validates);
  ]
