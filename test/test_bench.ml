(* The bench harness's committed-number gate: every key a suite's
   [--check] reads must be in the committed BENCH_<suite>.json, and a
   missing one fails the gate instead of being skipped. *)

module H = Bench_suites.Harness

(* The committed files are copied next to the test directory. *)
let committed_dir =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    Filename.parent_dir_name

let committed name =
  Filename.concat committed_dir (Printf.sprintf "BENCH_%s.json" name)

let test_committed_keys () =
  List.iter
    (fun (s : H.suite) ->
      if s.H.keys <> [] then begin
        let json = H.read_file (committed s.H.name) in
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s is a committed number" s.H.name
                 (String.concat "." k))
              true
              (Option.is_some (H.number json k)))
          s.H.keys
      end)
    Bench_suites.Registry.all

(* Every committed BENCH_<suite>.json names a suite [bench.exe] still
   runs: a baseline whose suite is gone fails here instead of lingering.
   BENCH_<suite>.ci.json files are fresh measurements, not baselines. *)
let test_no_orphan_baselines () =
  let baselines =
    Sys.readdir committed_dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json"
           && not (Filename.check_suffix f ".ci.json"))
  in
  Alcotest.(check bool) "some baselines found" true (baselines <> []);
  let suites =
    List.map (fun (s : H.suite) -> s.H.name) Bench_suites.Registry.all
  in
  List.iter
    (fun f ->
      let name = String.sub f 6 (String.length f - 11) in
      Alcotest.(check bool) (f ^ " names a registered suite") true
        (List.mem name suites))
    (List.sort compare baselines)

(* What the harness writes, it reads back: nested sections, inline and
   multi-line objects, and a key that shares a prefix with another. *)
let test_roundtrip () =
  let doc =
    H.(
      Obj
        [
          ("note", Str "the arena section follows");
          ( "off",
            Obj [ ("php(7,6)", Obj [ ("props_per_sec", fixed 0 1.0) ]) ] );
          ( "arena",
            Obj
              [
                ("php(7,6)", Obj [ ("props_per_sec", fixed 0 2101484.4) ]);
                ("php(8,7)", Obj [ ("props_per_sec", fixed 0 919634.0) ]);
              ] );
          ("speedup_geomean", fixed 2 1.6949);
          ("speedup", fixed 1 3.0);
          ("per_instance", List [ Obj [ ("speedup", fixed 1 9.0) ] ]);
        ])
  in
  let json = H.to_string doc in
  let num k = H.number json k in
  Alcotest.(check (option (float 0.0)))
    "nested" (Some 2101484.0)
    (num [ "arena"; "php(7,6)"; "props_per_sec" ]);
  Alcotest.(check (option (float 0.0)))
    "second instance" (Some 919634.0)
    (num [ "arena"; "php(8,7)"; "props_per_sec" ]);
  Alcotest.(check (option (float 0.0))) "first of its name" (Some 3.0)
    (num [ "speedup" ]);
  Alcotest.(check (option (float 0.0))) "rounded" (Some 1.69)
    (num [ "speedup_geomean" ]);
  Alcotest.(check (option (float 0.0))) "missing" None
    (num [ "arena"; "php(9,8)"; "props_per_sec" ])

let test_missing_key_fails () =
  let path = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      H.write_json path H.(Obj [ ("ratio", fixed 2 1.0) ]);
      let gate keys = H.gate ~suite:"t" ~keys path (fun committed ->
          List.map (fun k -> H.at_least "ratio" 1.0 (committed k)) keys)
      in
      Alcotest.(check bool) "present key passes" true (gate [ [ "ratio" ] ]);
      Alcotest.(check bool) "renamed key fails" false
        (gate [ [ "ratio" ]; [ "renamed" ] ]))

let suite =
  [
    ("committed files hold every gated key", `Quick, test_committed_keys);
    ("every committed baseline names a suite", `Quick,
     test_no_orphan_baselines);
    ("writer and reader agree", `Quick, test_roundtrip);
    ("a missing committed key fails the gate", `Quick, test_missing_key_fails);
  ]
