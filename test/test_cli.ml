(* End-to-end tests of the built binary: SAT-competition exit codes
   for 'solve'/'portfolio', and a scripted 'serve' session exercising
   cache hits, in-flight dedup, deadline timeouts and metrics
   reconciliation over the wire protocol. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The test runner lives in _build/default/test/, the CLI next door in
   _build/default/bin/ — resolve relative to the runner itself so the
   path works for both `dune runtest` and `dune exec`. *)
let cli =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "eda4sat_cli.exe")

let dev_null_out () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let open_out_file f =
  Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Run the CLI with [stdin]/[stdout]/[stderr] redirected to the given
   files (or /dev/null) and return its exit code.  [vmem_kb] caps its
   address space (ulimit -v). *)
let run_cli ?stdin_file ?stdout_file ?stderr_file ?vmem_kb args =
  let fd_in =
    match stdin_file with
    | Some f -> Unix.openfile f [ Unix.O_RDONLY ] 0
    | None -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0
  in
  let fd_out =
    match stdout_file with
    | Some f -> open_out_file f
    | None -> dev_null_out ()
  in
  let fd_err =
    match stderr_file with
    | Some f -> open_out_file f
    | None -> dev_null_out ()
  in
  let argv =
    match vmem_kb with
    | None -> cli :: args
    | Some kb ->
      "/bin/sh" :: "-c"
      :: Printf.sprintf "ulimit -v %d && exec \"$0\" \"$@\"" kb
      :: cli :: args
  in
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) fd_in fd_out fd_err
  in
  Unix.close fd_in;
  Unix.close fd_out;
  Unix.close fd_err;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    Alcotest.failf "CLI killed by signal %d" n

let temp_dir = Filename.temp_file "eda4sat_cli_test" ""

let () =
  Sys.remove temp_dir;
  Unix.mkdir temp_dir 0o755

let file name = Filename.concat temp_dir name

let write_cnf name f =
  Cnf.Dimacs.write_file f (file name);
  file name

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let tiny_sat =
  Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |]; [| -2; 3 |] ]

let tiny_unsat =
  Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| -1; 2 |]; [| -2 |] ]

let php n = Workloads.Satcomp.pigeonhole ~pigeons:n ~holes:(n - 1)

(* --- exit codes ------------------------------------------------------ *)

let test_solve_exit_codes () =
  let sat = write_cnf "tiny_sat.cnf" tiny_sat in
  let unsat = write_cnf "tiny_unsat.cnf" tiny_unsat in
  let hard = write_cnf "php11.cnf" (php 11) in
  check_int "SAT exits 10" 10
    (run_cli [ "solve"; "--no-preprocess"; "-i"; sat ]);
  check_int "UNSAT exits 20" 20
    (run_cli [ "solve"; "--no-preprocess"; "-i"; unsat ]);
  check_int "preprocessed SAT exits 10" 10 (run_cli [ "solve"; "-i"; sat ]);
  check_int "timeout exits 0" 0
    (run_cli [ "solve"; "--no-preprocess"; "--timeout"; "0.05"; "-i"; hard ])

(* A generated CNF-XOR instance goes through the solver's level-0
   Gauss–Jordan pass: the stats line reports the XORs it found. *)
let test_solve_xor_pass () =
  let cnf = file "xor130.cnf" and out = file "xor130.out" in
  check_int "generate exits 0" 0
    (run_cli [ "gen"; "--family"; "xor"; "--size"; "130"; "--out"; cnf ]);
  check_int "SAT exits 10" 10
    (run_cli ~stdout_file:out [ "solve"; "--no-preprocess"; "-i"; cnf ]);
  let lines = read_lines out in
  check_bool "s SATISFIABLE" true (List.mem "s SATISFIABLE" lines);
  let xors =
    List.find_map
      (fun l ->
        if String.length l > 2 && String.sub l 0 2 = "c " then
          List.find_map
            (fun w -> Scanf.sscanf_opt w "xors=%d%!" Fun.id)
            (String.split_on_char ' ' l)
        else None)
      lines
  in
  match xors with
  | Some n -> check_bool "xors > 0" true (n > 0)
  | None -> Alcotest.fail "no xors= on the stats line"

let test_portfolio_exit_codes () =
  let sat = write_cnf "tiny_sat2.cnf" tiny_sat in
  let unsat = write_cnf "tiny_unsat2.cnf" tiny_unsat in
  check_int "portfolio SAT exits 10" 10
    (run_cli [ "portfolio"; "--jobs"; "2"; "-i"; sat ]);
  check_int "portfolio UNSAT exits 20" 20
    (run_cli [ "portfolio"; "--jobs"; "2"; "-i"; unsat ])

(* --- malformed input -------------------------------------------------- *)

let write_text name text =
  let path = file name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* A malformed DIMACS or AIGER file and an unknown generator family are
   command-line errors: exit 124 with one "eda4sat: <what>: <message>"
   line on stderr, never an uncaught-exception crash (exit 125). *)
let test_malformed_input_errors () =
  let bad_cnf = write_text "bad.cnf" "p cnf 2 1\n1 x 0\n" in
  let bad_aag = write_text "bad.aag" "aag 3 2\n" in
  let err = file "malformed.err" in
  let expect_error what args line =
    check_int (what ^ " exits 124") 124 (run_cli ~stderr_file:err args);
    Alcotest.(check (list string))
      (what ^ " stderr") [ line ] (read_lines err)
  in
  expect_error "bad DIMACS" [ "solve"; "-i"; bad_cnf ]
    ("eda4sat: " ^ bad_cnf ^ ": bad token: x");
  expect_error "bad AIGER" [ "solve"; "-i"; bad_aag ]
    ("eda4sat: " ^ bad_aag ^ ": expected 'aag M I L O A' header");
  expect_error "unknown family"
    [ "generate"; "--family"; "bogus"; "--out"; file "bogus.cnf" ]
    "eda4sat: --family: unknown family: bogus"

let has_sub sub l =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
  in
  go 0

(* A [p cnf] header beyond the solver's variable limit is bad input,
   not an out-of-memory crash, on every subcommand that reads an
   instance.  The CLI runs under a 4 GB address-space cap, so a command
   that did try to allocate its tables fails fast instead of exhausting
   the machine. *)
let test_huge_header_is_input_error () =
  let huge = write_text "huge.cnf" "p cnf 2000000000 1\n1 0\n" in
  List.iter
    (fun (what, args) ->
      let err = file "huge.err" in
      check_int (what ^ " exits 124") 124
        (run_cli ~stderr_file:err ~vmem_kb:4_000_000 (args @ [ "-i"; huge ]));
      let lines = read_lines err in
      check_int (what ^ ": one stderr line") 1 (List.length lines);
      check_bool (what ^ ": names the limit") true
        (List.exists (has_sub "2^30 - 1") lines);
      check_bool (what ^ ": no uncaught exception") false
        (List.exists (has_sub "uncaught") lines))
    [
      ("solve", [ "solve" ]);
      ("solve --no-preprocess", [ "solve"; "--no-preprocess" ]);
      ("cube", [ "cube" ]);
      ("portfolio", [ "portfolio"; "-j"; "1" ]);
      ("preprocess", [ "preprocess"; "-o"; file "huge_out.cnf" ]);
    ]

(* A malformed [serve] argument is a command-line error too: exit 124,
   no uncaught exception on stderr. *)
let serve_arg_error name args () =
  let err = file (name ^ ".err") in
  check_int (name ^ " exits 124") 124
    (run_cli ~stderr_file:err ("serve" :: args));
  check_bool (name ^ " stderr has no uncaught exception") false
    (List.exists (has_sub "uncaught") (read_lines err))

(* --- AIGER operands and load errors on both transports ---------------- *)

(* A LEC miter as an ASCII AIGER file: the transports Tseitin-encode it
   and flatten it before submitting. *)
let miter_aag name =
  let path = file name in
  Aig.Aiger_io.write_file
    (Workloads.Lec.generate ~seed:3 ~num_pis:8 ~num_ands:60 ())
    path;
  path

(* The verdict line [eda4sat solve] gives for the same file, read off
   its SAT-competition exit code. *)
let cli_verdict path =
  match run_cli [ "solve"; "-i"; path ] with
  | 10 -> "SAT"
  | 20 -> "UNSAT"
  | code -> Alcotest.failf "eda4sat solve %s exited %d" path code

let parse_count engine = Server.Metrics.get (Server.stats engine) Parse_count

(* [SOLVE miter.aag] then [SOLVE bad.cnf]: the miter answers what the
   CLI answers and counts one parse; the malformed file answers the
   parser's message and counts none. *)
let check_aiger_answers ~aag ~bad ~parses lines =
  match lines with
  | h1 :: verdict :: rest ->
    check_bool "miter job header" true
      (Test_net.starts_with "c job 1 file=" h1);
    Alcotest.(check string)
      "miter verdict matches eda4sat solve" (cli_verdict aag) verdict;
    let rest =
      match rest with v :: r when Test_net.starts_with "v " v -> r | r -> r
    in
    (match rest with
     | [ h2; err ] ->
       check_bool "bad job header" true
         (Test_net.starts_with "c job 2 file=" h2);
       Alcotest.(check string) "typed load error"
         (Printf.sprintf "ERROR cannot load %s: bad token: x" bad)
         err
     | _ ->
       Alcotest.failf "unexpected stream:\n%s" (String.concat "\n" lines));
    check_int "one parse per loaded operand" 1 parses
  | _ -> Alcotest.failf "unexpected stream:\n%s" (String.concat "\n" lines)

let test_pipe_aiger_operand () =
  let aag = miter_aag "pipe_miter.aag" in
  let bad = write_text "pipe_bad.cnf" "p cnf 2 1\n1 x 0\n" in
  let engine =
    Server.create ~config:{ Server.default_config with workers = 2 } ()
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown engine)
    (fun () ->
      let r_cmd, w_cmd = Unix.pipe ~cloexec:true () in
      let r_ans, w_ans = Unix.pipe ~cloexec:true () in
      let loop = Net.Event_loop.create engine in
      Net.Event_loop.add_pipe loop ~fd_in:r_cmd ~fd_out:w_ans;
      let server =
        Domain.spawn (fun () ->
            Net.Event_loop.run loop;
            Unix.close w_ans)
      in
      let before = parse_count engine in
      Test_net.send (w_cmd, ref "")
        (Printf.sprintf "SOLVE %s\nSOLVE %s\nQUIT\n" aag bad);
      Unix.close w_cmd;
      let lines = Test_net.read_to_eof (r_ans, ref "") in
      Domain.join server;
      Unix.close r_ans;
      Unix.close r_cmd;
      check_aiger_answers ~aag ~bad ~parses:(parse_count engine - before)
        lines)

let test_loop_aiger_operand () =
  let aag = miter_aag "net_miter.aag" in
  let bad = write_text "net_bad.cnf" "p cnf 2 1\n1 x 0\n" in
  Test_net.with_loop (fun engine _loop port ->
      let before = parse_count engine in
      let c = Test_net.connect port in
      Test_net.send c (Printf.sprintf "SOLVE %s\nSOLVE %s\nQUIT\n" aag bad);
      let lines = Test_net.read_to_eof c in
      Test_net.close_client c;
      check_aiger_answers ~aag ~bad ~parses:(parse_count engine - before)
        lines)

(* --- serve e2e ------------------------------------------------------- *)

(* Pull "key": N out of the single-line STATS JSON. *)
let json_number json key =
  let pat = "\"" ^ key ^ "\": " in
  match String.index_opt json '{' with
  | None -> Alcotest.failf "not a JSON line: %s" json
  | Some _ -> (
    let rec find i =
      if i + String.length pat > String.length json then
        Alcotest.failf "key %s missing in %s" key json
      else if String.sub json i (String.length pat) = pat then (
        let j = ref (i + String.length pat) in
        let start = !j in
        while
          !j < String.length json
          && (match json.[!j] with
              | '0' .. '9' | '-' | '.' -> true
              | _ -> false)
        do
          incr j
        done;
        String.sub json start (!j - start))
      else find (i + 1)
    in
    find 0)

let json_int json key = int_of_string (json_number json key)
let json_float json key = float_of_string (json_number json key)

let test_serve_session () =
  let rng = Aig.Rng.create 7 in
  let r3 seed =
    ignore seed;
    Cnf.Formula.create ~num_vars:25
      (List.init 100 (fun _ ->
           Array.init 3 (fun _ ->
               let v = 1 + Aig.Rng.int rng 25 in
               if Aig.Rng.bool rng then v else -v)))
  in
  let blocker = write_cnf "blocker.cnf" (php 9) in
  let dedup =
    write_cnf "dedup.cnf"
      (Cnf.Formula.create ~num_vars:4
         [ [| 1; 2 |]; [| -1; 3 |]; [| -3; 4 |]; [| 2; -4 |] ])
  in
  let sat_base =
    Cnf.Formula.create ~num_vars:5
      [ [| 1; 2 |]; [| -2; 3 |]; [| -1; 4 |]; [| 4; 5 |]; [| -3; 5 |] ]
  in
  let base = write_cnf "sat_base.cnf" sat_base in
  (* The same formula with clauses shuffled and literals duplicated: a
     different file, the same canonical fingerprint. *)
  let renamed =
    write_cnf "sat_renamed.cnf"
      (Cnf.Formula.create ~num_vars:5
         [ [| 5; 4 |]; [| 2; 1; 2 |]; [| 5; -3 |]; [| 3; -2 |]; [| 4; -1 |] ])
  in
  let hard = write_cnf "php11_serve.cnf" (php 11) in
  let fillers = List.init 15 (fun i -> write_cnf
                                 (Printf.sprintf "r3_%d.cnf" i) (r3 i)) in
  let script = file "session.txt" in
  let oc = open_out script in
  (* 21 SOLVE requests: a slow blocker, a back-to-back duplicate pair
     (in-flight join), a known-SAT base, 15 fillers, a deadlined hard
     instance, then — after a SYNC barrier — a renamed duplicate of
     the base that must answer from the cache. *)
  output_string oc ("SOLVE " ^ blocker ^ "\n");
  output_string oc ("SOLVE " ^ dedup ^ "\n");
  output_string oc ("SOLVE " ^ dedup ^ "\n");
  output_string oc ("SOLVE " ^ base ^ "\n");
  List.iter (fun f -> output_string oc ("SOLVE " ^ f ^ "\n")) fillers;
  output_string oc ("SOLVE " ^ hard ^ " 100\n");
  output_string oc "SYNC\n";
  output_string oc ("SOLVE " ^ renamed ^ "\n");
  output_string oc "STATS\n";
  output_string oc "QUIT\n";
  close_out oc;
  let out = file "session.out" in
  check_int "serve exits 0" 0
    (run_cli ~stdin_file:script ~stdout_file:out
       [ "serve"; "--workers"; "1"; "--queue"; "64" ]);
  let lines =
    let ic = open_in out in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let count p = List.length (List.filter p lines) in
  check_int "21 answers" 21 (count (has_sub "c job "));
  check_int "one join" 1 (count (has_sub "source=join"));
  check_int "one cache hit" 1 (count (has_sub "source=cache"));
  check_int "one timeout" 1 (count (fun l -> l = "TIMEOUT"));
  check_int "no failures on the wire" 0
    (count (fun l -> has_sub "FAILED" l || has_sub "REJECTED" l
                     || has_sub "ERROR" l));
  let answer_blocks =
    (* (header, verdict-and-model lines) per job, in print order. *)
    let rec go acc cur = function
      | [] -> List.rev (match cur with None -> acc | Some c -> c :: acc)
      | l :: rest ->
        if has_sub "c job " l then
          go (match cur with None -> acc | Some c -> c :: acc)
            (Some (l, [])) rest
        else (
          match cur with
          | Some (h, body) -> go acc (Some (h, body @ [ l ])) rest
          | None -> go acc None rest)
    in
    go [] None
      (List.filter
         (fun l ->
           (not (has_sub "c sync" l))
           && (String.length l = 0 || l.[0] <> '{'))
         lines)
  in
  let body_of pred =
    List.filter_map
      (fun (h, body) -> if pred h then Some body else None)
      answer_blocks
  in
  (match body_of (has_sub "dedup.cnf") with
   | [ b1; b2 ] ->
     Alcotest.(check (list string)) "join serves the same answer" b1 b2
   | bs -> Alcotest.failf "expected 2 dedup answers, got %d" (List.length bs));
  (match
     ( body_of (fun h -> has_sub "sat_base.cnf" h),
       body_of (fun h -> has_sub "sat_renamed.cnf" h) )
   with
   | [ b1 ], [ b2 ] ->
     Alcotest.(check (list string))
       "cache hit is bit-identical across files" b1 b2;
     (match b2 with
      | verdict :: v :: _ when verdict = "SAT" ->
        (* The served model must satisfy the formula actually
           submitted under the renamed file. *)
        let m = Array.make 5 false in
        String.split_on_char ' ' v
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | Some l when l > 0 && l <= 5 -> m.(l - 1) <- true
               | _ -> ());
        check_bool "cached model satisfies the duplicate file" true
          (Cnf.Formula.eval sat_base m)
      | _ -> Alcotest.fail "renamed duplicate did not answer SAT")
   | _ -> Alcotest.fail "base/renamed answers missing");
  let stats_line =
    match List.filter (has_sub "\"submitted\"") lines with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected 1 STATS line, got %d" (List.length ls)
  in
  let g k = json_int stats_line k in
  check_int "requests reconcile: submitted + cache + warm + join + rejected"
    21
    (g "submitted" + g "cache_hits" + g "warm_hits" + g "dedup_joins"
    + g "rejected");
  check_int "every job completed"
    (g "submitted" + g "warm_hits")
    (g "completed");
  check_int "outcomes reconcile" (g "completed")
    (g "solved_sat" + g "solved_unsat" + g "timeouts" + g "failures");
  check_int "no failures" 0 (g "failures");
  check_int "one deadline enforced" 1 (g "timeouts");
  check_int "one cache hit in stats" 1 (g "cache_hits");
  check_int "one dedup join in stats" 1 (g "dedup_joins");
  (* Every SOLVE operand went through the transport loader, and each
     successful load lands in the parse-latency ring. *)
  check_int "every load parse-timed" 21 (g "parse_count");
  let gf k = json_float stats_line k in
  check_bool "parse percentiles ordered" true
    (gf "parse_p50_ms" <= gf "parse_p95_ms"
    && gf "parse_p95_ms" <= gf "parse_max_ms");
  check_bool "parse max positive" true (gf "parse_max_ms" > 0.0);
  check_bool "warm snapshots coherent" true
    (g "warm_seeded" <= g "warm_hits");
  (* The deadlined job is resolved by the monitor while still queued;
     its stale heap entry may not have been popped yet when STATS is
     computed, so the depth is 0 or 1 — never a real waiter. *)
  check_bool "queue drained" true (g "queue_depth" <= 1);
  check_int "nothing left in flight" 0 (g "inflight")

(* --- serve: incremental session verbs -------------------------------- *)

let starts_with p l =
  String.length l >= String.length p && String.sub l 0 (String.length p) = p

(* Parse a "v 1 -2 3 0" line into a model array and check it against a
   formula over the same client variables. *)
let v_line_satisfies f line =
  let m = Array.make f.Cnf.Formula.num_vars false in
  String.split_on_char ' ' line
  |> List.iter (fun tok ->
         match int_of_string_opt tok with
         | Some l when l > 0 && l <= f.Cnf.Formula.num_vars ->
           m.(l - 1) <- true
         | _ -> ());
  Cnf.Formula.eval f m

let test_serve_session_verbs () =
  (* The session's client-side formula: (1|2)(-1|3).  Assuming -2
     forces 1 and 3; a pushed frame adding -3 makes assumption 1
     contradictory with core {1}; popping restores satisfiability. *)
  let base =
    Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |] ]
  in
  let script = file "verbs.txt" in
  let oc = open_out script in
  output_string oc "OPEN\n";
  output_string oc "ADD 0 1 2 0 -1 3 0\n";
  output_string oc "ASSUME 0 -2\n";
  output_string oc "SOLVE 0\n";
  output_string oc "PUSH 0\n";
  output_string oc "ADD 0 -3 0\n";
  output_string oc "ASSUME 0 1\n";
  output_string oc "SOLVE 0\n";
  output_string oc "POP 0\n";
  output_string oc "SOLVE 0\n";
  output_string oc "CLOSE 0\n";
  output_string oc "STATS\n";
  output_string oc "QUIT\n";
  close_out oc;
  let out = file "verbs.out" in
  check_int "serve exits 0" 0
    (run_cli ~stdin_file:script ~stdout_file:out
       [ "serve"; "--workers"; "2"; "--queue"; "64" ]);
  let lines = read_lines out in
  (* Strip per-answer headers and the STATS JSON; what remains is the
     ordered verdict stream, which must match the script exactly. *)
  let significant =
    List.filter
      (fun l ->
        String.length l > 0
        && l.[0] <> '{'
        && (not (starts_with "c job" l))
        && not (starts_with "c session" l))
      lines
  in
  (match significant with
   | [ "OPENED 0"; "OK"; "OK"; "SAT"; v1; "OK"; "OK"; "OK"; "UNSAT";
       core; "OK"; "SAT"; v2; "OK" ] ->
     check_bool "first model satisfies base" true (v_line_satisfies base v1);
     check_bool "first model honors assumption -2" true
       (not (v_line_satisfies (Cnf.Formula.create ~num_vars:3 [ [| 2 |] ]) v1));
     Alcotest.(check string) "unsat core is the failed assumption"
       "c core 1 0" core;
     check_bool "post-pop model satisfies base" true (v_line_satisfies base v2)
   | ls ->
     Alcotest.failf "unexpected answer stream (%d lines):\n%s"
       (List.length ls) (String.concat "\n" ls));
  let stats_line =
    match List.filter (has_sub "\"submitted\"") lines with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected 1 STATS line, got %d" (List.length ls)
  in
  let g k = json_int stats_line k in
  check_int "ten session ops" 10 (g "session_ops");
  check_int "one session opened" 1 (g "sessions_opened");
  check_int "three session solves" 3 (g "session_solves");
  check_int "no one-shot traffic" 0
    (g "submitted" + g "cache_hits" + g "warm_hits" + g "dedup_joins"
    + g "rejected");
  check_int "requests reconcile: 10 session ops, nothing else" 10
    (g "submitted" + g "cache_hits" + g "warm_hits" + g "dedup_joins"
    + g "rejected" + g "session_ops")

(* --- serve: wire deadlines are milliseconds, validated --------------- *)

let test_serve_bad_deadline () =
  let sat = write_cnf "deadline_sat.cnf" tiny_sat in
  let script = file "deadline.txt" in
  let oc = open_out script in
  (* Negative and NaN deadline_ms must answer REJECTED bad-deadline —
     a NaN composed into an absolute instant would never fire and the
     job would hang forever.  The same validation guards the session
     SOLVE path.  A generous valid deadline still solves. *)
  output_string oc ("SOLVE " ^ sat ^ " -100\n");
  output_string oc ("SOLVE " ^ sat ^ " nan\n");
  output_string oc ("SOLVE " ^ sat ^ " 5000\n");
  output_string oc "OPEN\n";
  output_string oc "SOLVE 0 -1\n";
  output_string oc "SOLVE 0 nan\n";
  output_string oc "CLOSE 0\n";
  output_string oc "STATS\n";
  output_string oc "QUIT\n";
  close_out oc;
  let out = file "deadline.out" in
  check_int "serve exits 0" 0
    (run_cli ~stdin_file:script ~stdout_file:out
       [ "serve"; "--workers"; "1"; "--queue"; "16" ]);
  let lines = read_lines out in
  let count p = List.length (List.filter p lines) in
  check_int "four bad deadlines rejected" 4
    (count (has_sub "REJECTED bad-deadline"));
  check_int "valid deadline still solves" 1 (count (fun l -> l = "SAT"));
  let stats_line =
    match List.filter (has_sub "\"submitted\"") lines with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected 1 STATS line, got %d" (List.length ls)
  in
  let g k = json_int stats_line k in
  check_int "rejections counted" 4 (g "rejected");
  check_int "one job submitted" 1 (g "submitted");
  check_int "close counted as a session op" 1 (g "session_ops")

(* --- serve: EOF is an implicit SYNC-and-drain ------------------------ *)

let test_serve_eof_drain () =
  let sat = write_cnf "eof_sat.cnf" tiny_sat in
  let unsat = write_cnf "eof_unsat.cnf" tiny_unsat in
  let script = file "eof.txt" in
  let oc = open_out script in
  (* No QUIT, and the final command has no trailing newline: EOF must
     still drain and print every answer before the process exits. *)
  output_string oc ("SOLVE " ^ sat ^ "\n");
  output_string oc ("SOLVE " ^ unsat);
  close_out oc;
  let out = file "eof.out" in
  check_int "serve exits 0" 0
    (run_cli ~stdin_file:script ~stdout_file:out
       [ "serve"; "--workers"; "1"; "--queue"; "16" ]);
  let lines = read_lines out in
  let count p = List.length (List.filter p lines) in
  check_int "both answers printed" 2 (count (has_sub "c job "));
  check_int "SAT answer present" 1 (count (fun l -> l = "SAT"));
  check_int "UNSAT answer not lost at EOF" 1 (count (fun l -> l = "UNSAT"))

(* --- serve: socket front-end ----------------------------------------- *)

(* Spawn the CLI without waiting; the caller owns the pid. *)
let spawn_cli ?stdout_file args =
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out =
    match stdout_file with
    | Some f ->
      Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> dev_null_out ()
  in
  let fd_err = dev_null_out () in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) fd_in fd_out fd_err
  in
  Unix.close fd_in;
  Unix.close fd_out;
  Unix.close fd_err;
  pid

(* Poll the server's stdout for the "c listening on HOST:PORT" line. *)
let wait_port out_file =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "server never announced its port";
    let announced =
      match read_lines out_file with
      | exception _ -> None
      | lines ->
        List.find_map
          (fun l ->
            if starts_with "c listening on " l then
              match String.rindex_opt l ':' with
              | Some i ->
                int_of_string_opt
                  (String.sub l (i + 1) (String.length l - i - 1))
              | None -> None
            else None)
          lines
    in
    match announced with
    | Some port -> port
    | None ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let test_serve_socket_multiclient () =
  let sat = write_cnf "mc_sat.cnf" tiny_sat in
  let unsat = write_cnf "mc_unsat.cnf" tiny_unsat in
  let hard = write_cnf "mc_php11.cnf" (php 11) in
  let out = file "mc_serve.out" in
  let pid =
    spawn_cli ~stdout_file:out
      [ "serve"; "--workers"; "2"; "--listen"; "127.0.0.1:0";
        "--tenant"; "limited=1" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let port = wait_port out in
  (* Everyone submits before anyone reads: 8 one-shot clients, a
     session client, a quota-capped client and an undeclared slow
     reader all run concurrently through one event loop. *)
  let clients =
    List.init 8 (fun i ->
        let c = Test_net.connect port in
        Test_net.send c
          (Printf.sprintf "CLIENT mc%d\nSOLVE %s\nSOLVE %s\nQUIT\n" i sat
             unsat);
        c)
  in
  let s = Test_net.connect port in
  Test_net.send s
    "CLIENT sess\nOPEN\nADD 0 1 2 0 -1 3 0\nASSUME 0 -2\nSOLVE 0\nCLOSE \
     0\nQUIT\n";
  let q = Test_net.connect port in
  Test_net.send q
    (Printf.sprintf "CLIENT limited\nSOLVE %s 300\nSOLVE %s 300\nQUIT\n"
       hard hard);
  let slow = Test_net.connect port in
  Test_net.send slow (Printf.sprintf "SOLVE %s\nQUIT\n" sat);
  (* Per-connection answers arrive in submission order, whatever the
     engine's completion order across 11 concurrent connections. *)
  List.iteri
    (fun i c ->
      match Test_net.read_to_eof c with
      | [ hello; h1; "SAT"; v; h2; "UNSAT" ] ->
        Alcotest.(check string) "hello" (Printf.sprintf "HELLO mc%d" i) hello;
        check_bool "job 1 header" true (starts_with "c job 1" h1);
        check_bool "model line" true (starts_with "v " v);
        check_bool "job 2 header" true (starts_with "c job 2" h2)
      | ls ->
        Alcotest.failf "client %d: unexpected stream (%d lines):\n%s" i
          (List.length ls) (String.concat "\n" ls))
    clients;
  (match Test_net.read_to_eof s with
   | [ "HELLO sess"; oh; "OPENED 0"; ah; "OK"; sh; "OK"; vh; "SAT"; v;
       ch; "OK" ] ->
     check_bool "open header" true (starts_with "c job 1 op=open" oh);
     check_bool "add header" true (starts_with "c session 0 job 2 op=add" ah);
     check_bool "assume header" true
       (starts_with "c session 0 job 3 op=assume" sh);
     check_bool "solve header" true
       (starts_with "c session 0 job 4 op=solve" vh);
     check_bool "close header" true
       (starts_with "c session 0 job 5 op=close" ch);
     check_bool "session model" true (starts_with "v " v)
   | ls ->
     Alcotest.failf "session client: unexpected stream (%d lines):\n%s"
       (List.length ls) (String.concat "\n" ls));
  (match Test_net.read_to_eof q with
   | [ "HELLO limited"; h1; "TIMEOUT"; h2; "REJECTED quota" ] ->
     check_bool "quota job 1 header" true (starts_with "c job 1" h1);
     check_bool "quota job 2 header" true (starts_with "c job 2" h2)
   | ls ->
     Alcotest.failf "quota client: unexpected stream (%d lines):\n%s"
       (List.length ls) (String.concat "\n" ls));
  (* The slow reader only drains now: its answer waited in the
     connection buffer without ever blocking the loop or the others. *)
  (match Test_net.read_to_eof slow with
   | [ h1; "SAT"; _v ] ->
     check_bool "slow reader header" true (starts_with "c job 1" h1)
   | ls ->
     Alcotest.failf "slow client: unexpected stream (%d lines):\n%s"
       (List.length ls) (String.concat "\n" ls));
  (* Engine counters and per-client transport counters reconcile over
     one more connection. *)
  let st = Test_net.connect port in
  Test_net.send st "STATS\nQUIT\n";
  let stats_line =
    match
      List.filter (has_sub "\"submitted\"") (Test_net.read_to_eof st)
    with
    | [ l ] -> l
    | ls -> Alcotest.failf "expected 1 STATS line, got %d" (List.length ls)
  in
  let g k = json_int stats_line k in
  (* 17 distinct-or-duplicate one-shots reached the engine (8x2 + the
     slow reader's) plus the quota client's first; its second was
     refused at the net layer and never became an engine request. *)
  check_int "engine accepted 18 one-shots" 18
    (g "submitted" + g "cache_hits" + g "warm_hits" + g "dedup_joins");
  check_int "no engine rejections" 0 (g "rejected");
  check_int "four session ops" 4 (g "session_ops");
  check_int "one session opened" 1 (g "sessions_opened");
  check_int "one session closed" 1 (g "sessions_closed");
  check_int "the deadlined job timed out" 1 (g "timeouts");
  check_int "everything else completed"
    (g "submitted" + g "warm_hits")
    (g "completed");
  check_bool "per-client counters: one-shot tenant" true
    (has_sub "\"mc3\": {\"requests\": 2, \"answered\": 2, \"rejected\": 0}"
       stats_line);
  check_bool "per-client counters: session tenant" true
    (has_sub "\"sess\": {\"requests\": 5, \"answered\": 5, \"rejected\": 0}"
       stats_line);
  check_bool "per-client counters: quota rejection recorded" true
    (has_sub
       "\"limited\": {\"requests\": 2, \"answered\": 1, \"rejected\": 1}"
       stats_line);
  check_bool "per-client counters: undeclared client is anon" true
    (has_sub "\"anon\": {\"requests\": 1, \"answered\": 1, \"rejected\": 0}"
       stats_line);
  (* Shut the server down for real and insist on a clean exit. *)
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st -> (
    match st with
    | Unix.WEXITED c -> Alcotest.failf "server exited %d" c
    | _ -> Alcotest.fail "server killed by signal")

let test_serve_sigterm_drain () =
  let hard = write_cnf "drain_php11.cnf" (php 11) in
  let out = file "drain_serve.out" in
  let pid =
    spawn_cli ~stdout_file:out
      [ "serve"; "--workers"; "1"; "--listen"; "127.0.0.1:0" ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let port = wait_port out in
  let c = Test_net.connect port in
  (* No QUIT: only SIGTERM ends this connection.  The in-flight solve
     must still answer before the server exits. *)
  Test_net.send c (Printf.sprintf "SOLVE %s 300\n" hard);
  Unix.sleepf 0.1;
  Unix.kill pid Sys.sigterm;
  let lines = Test_net.read_to_eof c in
  Test_net.close_client c;
  check_bool "in-flight header survived the drain" true
    (List.exists (starts_with "c job 1") lines);
  check_bool "in-flight answer survived the drain" true
    (List.exists (fun l -> l = "TIMEOUT") lines);
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "drained server exited %d" c
  | _ -> Alcotest.fail "drained server killed by signal"

let suite =
  [
    ("solve exit codes", `Quick, test_solve_exit_codes);
    ("portfolio exit codes", `Quick, test_portfolio_exit_codes);
    ("malformed input is a CLI error", `Quick, test_malformed_input_errors);
    ("huge p cnf header is a CLI error", `Quick,
     test_huge_header_is_input_error);
    ("serve --mode bogus is a CLI error", `Quick,
     serve_arg_error "mode" [ "--mode"; "bogus"; "--stdio" ]);
    ("serve --mode portfolio is a CLI error", `Quick,
     serve_arg_error "mode" [ "--mode"; "portfolio"; "--stdio" ]);
    ("serve --jobs 2 is a CLI error", `Quick,
     serve_arg_error "jobs" [ "--jobs"; "2"; "--stdio" ]);
    ("serve --share-lbd 4 is a CLI error", `Quick,
     serve_arg_error "share-lbd" [ "--share-lbd"; "4"; "--stdio" ]);
    ("serve --listen nohost is a CLI error", `Quick,
     serve_arg_error "listen" [ "--listen"; "nohost" ]);
    ("serve --tenant zzz is a CLI error", `Quick,
     serve_arg_error "tenant" [ "--tenant"; "zzz"; "--stdio" ]);
    ("pipe: AIGER operand and load error", `Quick, test_pipe_aiger_operand);
    ("socket: AIGER operand and load error", `Quick, test_loop_aiger_operand);
    ("serve e2e session", `Quick, test_serve_session);
    ("serve session verbs", `Quick, test_serve_session_verbs);
    ("serve bad deadline rejected", `Quick, test_serve_bad_deadline);
    ("serve eof drains answers", `Quick, test_serve_eof_drain);
    ("serve socket multi-client", `Quick, test_serve_socket_multiclient);
    ("serve SIGTERM graceful drain", `Quick, test_serve_sigterm_drain);
    ("solve reports the XOR pass", `Quick, test_solve_xor_pass);
  ]
