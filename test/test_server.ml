(* The concurrent solve service: queue semantics, cache hits serving
   bit-identical verified models, in-flight deduplication, deadline
   enforcement, admission control, and a multi-domain submit/await
   fuzz with metrics reconciliation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let flat = Cnf.Flat.of_formula
let get = Server.Metrics.get
let stat e k = get (Server.stats e) k

(* The metrics ledger holds: derived sums, job and session accounting. *)
let check_ledger s =
  Alcotest.(check (list string)) "ledger reconciles" []
    (Server.Metrics.reconcile s)

let config ?(workers = 2) ?(queue = 64) ?(cache = 64) ?(warm = 64)
    ?(sessions = 64) ?session_ttl ?cube ?(limits = Sat.Solver.no_limits) () =
  {
    Server.workers;
    queue_capacity = queue;
    cache_capacity = cache;
    warm_capacity = warm;
    limits;
    default_deadline = None;
    session_capacity = sessions;
    session_ttl;
    cube;
  }

let with_engine ?workers ?queue ?cache ?warm ?sessions ?session_ttl ?cube
    ?limits f =
  let e =
    Server.create
      ~config:
        (config ?workers ?queue ?cache ?warm ?sessions ?session_ttl ?cube
           ?limits ())
      ()
  in
  Fun.protect ~finally:(fun () -> Server.shutdown e) (fun () -> f e)

let submit_ok e ?deadline ?priority f =
  match Server.submit e ?deadline ?priority (flat f) with
  | Ok t -> t
  | Error r -> Alcotest.failf "submit rejected: %s" r

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
  let nvars = 2 + Aig.Rng.int rng 11 in
  let nclauses = 1 + Aig.Rng.int rng (4 * nvars) in
  Cnf.Formula.create ~num_vars:nvars
    (List.init nclauses (fun _ ->
         Array.init
           (1 + Aig.Rng.int rng 4)
           (fun _ ->
             let v = 1 + Aig.Rng.int rng nvars in
             if Aig.Rng.bool rng then v else -v)))

(* Random 3-SAT on 10-14 variables at 4.5-5.5 clauses per variable:
   around the threshold, so most need a few conflicts, and small
   enough for [brute_force_sat]. *)
let random_3sat rng =
  let nvars = 10 + Aig.Rng.int rng 5 in
  let nclauses = (9 * nvars / 2) + Aig.Rng.int rng nvars in
  Cnf.Formula.create ~num_vars:nvars
    (List.init nclauses (fun _ ->
         Array.init 3 (fun _ ->
             let v = 1 + Aig.Rng.int rng nvars in
             if Aig.Rng.bool rng then v else -v)))

let php n = Workloads.Satcomp.pigeonhole ~pigeons:n ~holes:(n - 1)

(* --- basics ---------------------------------------------------------- *)

let test_solve_basics () =
  with_engine (fun e ->
      let sat = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |] ] in
      (match Server.solve e (flat sat) with
       | Ok { Server.verdict = Server.Sat m; source = Server.Solved; _ } ->
         check_bool "model satisfies" true (Cnf.Formula.eval sat m)
       | Ok _ -> Alcotest.fail "expected a fresh SAT answer"
       | Error r -> Alcotest.failf "rejected: %s" r);
      match Server.solve e (flat (php 5)) with
      | Ok { Server.verdict = Server.Unsat; _ } -> ()
      | Ok _ -> Alcotest.fail "php(5,4) must be UNSAT"
      | Error r -> Alcotest.failf "rejected: %s" r)

let test_cache_hit_bit_identical () =
  with_engine (fun e ->
      let f =
        Cnf.Formula.create ~num_vars:4
          [ [| 1; 2 |]; [| -1; 3 |]; [| -3; 4 |]; [| 2; -4 |] ]
      in
      let cold =
        match Server.solve e (flat f) with
        | Ok a -> a
        | Error r -> Alcotest.failf "cold solve rejected: %s" r
      in
      let m0 =
        match cold.Server.verdict with
        | Server.Sat m -> m
        | _ -> Alcotest.fail "formula is satisfiable"
      in
      (* Clause order and duplicate literals differ; the canonical
         fingerprint matches, so this must answer from the cache with
         the very same model. *)
      let g =
        Cnf.Formula.create ~num_vars:4
          [ [| 2; -4; 2 |]; [| 4; -3 |]; [| 2; 1 |]; [| 3; -1 |] ]
      in
      match Server.solve e (flat g) with
      | Ok { Server.verdict = Server.Sat m; source = Server.Cache_hit; _ } ->
        Alcotest.(check (array bool)) "bit-identical model" m0 m;
        check_bool "valid for the renamed duplicate" true
          (Cnf.Formula.eval g m);
        check_int "one cache hit" 1 (stat e Cache_hits)
      | Ok a ->
        Alcotest.failf "expected cache hit, got source=%s"
          (match a.Server.source with
           | Server.Solved -> "solved"
           | Server.Cache_hit -> "cache"
           | Server.Dedup_join -> "join")
      | Error r -> Alcotest.failf "rejected: %s" r)

let test_dedup_solves_once () =
  with_engine ~workers:1 (fun e ->
      (* A busy worker keeps [f] queued, so the second submit of the
         same formula must attach to the first job instead of creating
         a new one. *)
      let blocker = submit_ok e (php 9) in
      let f = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -2; 3 |] ] in
      let t1 = submit_ok e f in
      let t2 = submit_ok e f in
      let a1 = Server.await e t1 in
      let a2 = Server.await e t2 in
      ignore (Server.await e blocker);
      let model = function
        | { Server.verdict = Server.Sat m; _ } -> m
        | _ -> Alcotest.fail "satisfiable formula"
      in
      Alcotest.(check (array bool)) "same answer" (model a1) (model a2);
      check_bool "one of the two joined" true
        (a1.Server.source = Server.Dedup_join
         || a2.Server.source = Server.Dedup_join);
      let s = Server.stats e in
      check_int "dedup recorded" 1 (get s Dedup_joins);
      (* blocker + f: exactly two jobs actually entered the queue. *)
      check_int "two jobs created" 2 (get s Submitted))

let test_deadline_timeout () =
  with_engine ~workers:1 (fun e ->
      let t0 = Unix.gettimeofday () in
      match Server.solve e ~deadline:0.15 (flat (php 11)) with
      | Ok { Server.verdict = Server.Timeout; _ } ->
        let took = Unix.gettimeofday () -. t0 in
        check_bool
          (Printf.sprintf "answered near the deadline (%.2fs)" took)
          true (took < 5.0);
        check_int "timeout counted" 1 (stat e Timeouts)
      | Ok _ -> Alcotest.fail "php(11,10) cannot finish in 150ms here"
      | Error r -> Alcotest.failf "rejected: %s" r)

let test_queue_full_rejection () =
  with_engine ~workers:1 ~queue:2 (fun e ->
      let _blocker = submit_ok e (php 11) in
      (* Let the single worker pop the blocker so the queue is empty
         but the worker is busy for a long time. *)
      Unix.sleepf 0.05;
      let _q1 = submit_ok e (php 12) in
      let _q2 = submit_ok e (php 13) in
      (match Server.submit e (flat (php 14)) with
       | Error reason ->
         check_bool "reason mentions the queue" true
           (String.length reason > 0)
       | Ok _ -> Alcotest.fail "queue of 2 accepted a third waiter");
      let s = Server.stats e in
      check_int "rejection counted" 1 (get s Rejected);
      check_int "queue depth at capacity" 2 (get s Queue_depth))
  (* shutdown interrupts the running php(11,10) and fails the queued
     jobs; with_engine's finally exercises that path. *)

let test_shutdown_idempotent () =
  let e = Server.create ~config:(config ()) () in
  let f = Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| 2 |] ] in
  (match Server.solve e (flat f) with
   | Ok { Server.verdict = Server.Sat _; _ } -> ()
   | _ -> Alcotest.fail "simple solve failed");
  Server.shutdown e;
  Server.shutdown e;
  match Server.submit e (flat f) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "submit accepted after shutdown"

let test_concurrent_fuzz () =
  with_engine ~workers:3 ~queue:256 (fun e ->
      let n_domains = 4 and per_domain = 20 in
      let failures = Atomic.make 0 in
      let complain fmt =
        Printf.ksprintf
          (fun msg ->
            Atomic.incr failures;
            print_endline ("fuzz: " ^ msg))
          fmt
      in
      let worker d () =
        (* Overlapping seed ranges across domains provoke dedup joins
           and cache hits alongside fresh solves. *)
        for i = 0 to per_domain - 1 do
          let rng = Aig.Rng.create (1000 + ((d + i) mod 17)) in
          let f = random_formula rng in
          match Server.solve e (flat f) with
          | Error r -> complain "domain %d case %d rejected: %s" d i r
          | Ok a -> (
            match a.Server.verdict with
            | Server.Sat m ->
              if not (Cnf.Formula.eval f m) then
                complain "domain %d case %d: bad model" d i
            | Server.Unsat ->
              if brute_force_sat f then
                complain "domain %d case %d: wrong UNSAT" d i
            | Server.Timeout | Server.Failed _ ->
              complain "domain %d case %d: unexpected non-answer" d i)
        done
      in
      let ds = List.init n_domains (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      check_int "no failures" 0 (Atomic.get failures);
      let s = Server.stats e in
      check_int "every request accounted"
        (n_domains * per_domain)
        (Server.Metrics.requests s);
      check_ledger s;
      check_int "all answers decisive" 0 (get s Timeouts + get s Failures);
      check_bool "cache or dedup observed" true
        (get s Cache_hits + get s Dedup_joins > 0))

(* --- sessions -------------------------------------------------------- *)

let session_ok = function
  | Ok (a : Server.Session.answer) -> a
  | Error r -> Alcotest.failf "session op rejected: %s" r

let open_ok e =
  match Server.open_session e with
  | Ok sid -> sid
  | Error r -> Alcotest.failf "open_session rejected: %s" r

let outcome_name = function
  | Server.Session.Ok_done -> "OK"
  | Server.Session.Sat _ -> "SAT"
  | Server.Session.Unsat _ -> "UNSAT"
  | Server.Session.Timeout -> "TIMEOUT"
  | Server.Session.Evicted -> "EVICTED"
  | Server.Session.Failed m -> "FAILED " ^ m

(* Pad/clamp a session model (client variables in first-use order) to
   a formula's declared width; unconstrained variables are free. *)
let fit_model ~num_vars m =
  Array.init num_vars (fun i -> i < Array.length m && m.(i))

(* A Close answer resolves before the worker retires the session from
   the engine table, so lifecycle counters may trail the awaited
   answer by a scheduler beat — poll briefly before asserting. *)
let await_counter name get expected =
  let tries = ref 300 in
  while get () <> expected && !tries > 0 do
    decr tries;
    Unix.sleepf 0.005
  done;
  check_int name expected (get ())

(* A SOLVE queued behind a CLOSE never reaches the solver: [run_one]
   answers it [Failed "session closed"] and reports nothing executed,
   so the engine's [session_solves] does not count it — the same as a
   SOLVE sent after the session retired. *)
let test_solve_after_close_not_executed () =
  let module S = Server.Session in
  let s = S.create ~id:1 () in
  let run () =
    S.run_one ~limits:Sat.Solver.no_limits ~stopping:(fun () -> false) s
  in
  let enqueue op =
    match S.enqueue s op with
    | `Scheduled t | `Queued t -> t
    | `Full -> Alcotest.fail "session queue full"
  in
  ignore (enqueue (S.Add [ [| 1; 2 |] ]));
  ignore (enqueue (S.Solve { deadline = None }));
  ignore (run ());
  (match (run ()).S.executed with
   | Some (S.Solve _, { S.outcome = S.Sat _; _ }) -> ()
   | _ -> Alcotest.fail "a live SOLVE is reported executed");
  ignore (enqueue S.Close);
  let late = enqueue (S.Solve { deadline = None }) in
  (match (run ()).S.executed with
   | Some (S.Close, _) -> ()
   | _ -> Alcotest.fail "CLOSE is reported executed");
  let step = run () in
  check_bool "the queued SOLVE is not reported executed" true
    (step.S.executed = None);
  check_bool "the session retires" true (step.S.next = `Closed);
  match S.poll late with
  | Some { S.outcome = S.Failed "session closed"; _ } -> ()
  | _ -> Alcotest.fail "the queued SOLVE answers FAILED session closed"

let test_session_basics () =
  with_engine (fun e ->
      let sid = open_ok e in
      (match
         (session_ok (Server.session_add e sid [ [| 1; 2 |]; [| -1; 3 |] ]))
           .Server.Session.outcome
       with
       | Server.Session.Ok_done -> ()
       | o -> Alcotest.failf "ADD answered %s" (outcome_name o));
      (match
         (session_ok (Server.solve_session e sid)).Server.Session.outcome
       with
       | Server.Session.Sat m ->
         check_int "model covers the client variables" 3 (Array.length m);
         check_bool "satisfies 1|2" true (m.(0) || m.(1));
         check_bool "satisfies -1|3" true ((not m.(0)) || m.(2))
       | o -> Alcotest.failf "SOLVE answered %s" (outcome_name o));
      ignore (session_ok (Server.session_add e sid [ [| -2 |] ]));
      (* (1|2)(-1|3)(-2) under assumption -1: 2 is forced, conflict —
         the failed-assumption core must name client literals only. *)
      (match
         (session_ok (Server.session_assume e sid [| -1; -3 |]))
           .Server.Session.outcome
       with
       | Server.Session.Ok_done -> ()
       | o -> Alcotest.failf "ASSUME answered %s" (outcome_name o));
      (match
         (session_ok (Server.solve_session e sid)).Server.Session.outcome
       with
       | Server.Session.Unsat core ->
         check_bool "core nonempty" true (Array.length core >= 1);
         check_bool "core drawn from the assumptions" true
           (Array.for_all (fun l -> l = -1 || l = -3) core)
       | o -> Alcotest.failf "assumed SOLVE answered %s" (outcome_name o));
      (* IPASIR: assumptions cleared once the solve answered. *)
      (match
         (session_ok (Server.solve_session e sid)).Server.Session.outcome
       with
       | Server.Session.Sat _ -> ()
       | o -> Alcotest.failf "post-assumption SOLVE answered %s"
                (outcome_name o));
      (match
         (session_ok (Server.close_session e sid)).Server.Session.outcome
       with
       | Server.Session.Ok_done -> ()
       | o -> Alcotest.failf "CLOSE answered %s" (outcome_name o));
      (match
         (session_ok (Server.session_push e sid)).Server.Session.outcome
       with
       | Server.Session.Failed _ -> ()
       | o -> Alcotest.failf "op on a closed session answered %s"
                (outcome_name o));
      check_int "opens counted" 1 (stat e Sessions_opened);
      await_counter "closes counted"
        (fun () -> stat e Sessions_closed)
        1;
      (* add, solve, add, (assume + solve), solve, close, push: 8 ops *)
      check_int "session ops counted" 8 (stat e Session_ops);
      check_int "session solves counted" 3 (stat e Session_solves))

let test_session_push_pop () =
  with_engine (fun e ->
      let sid = open_ok e in
      ignore (session_ok (Server.session_add e sid [ [| 1; 2 |] ]));
      ignore (session_ok (Server.session_push e sid));
      ignore (session_ok (Server.session_add e sid [ [| -1 |]; [| -2 |] ]));
      (match
         (session_ok (Server.solve_session e sid)).Server.Session.outcome
       with
       | Server.Session.Unsat core ->
         (* The conflict is carried by the frame's activation literal,
            which is not client-visible: the reported core is empty. *)
         check_int "activation-only core filtered" 0 (Array.length core)
       | o -> Alcotest.failf "framed SOLVE answered %s" (outcome_name o));
      ignore (session_ok (Server.session_pop e sid));
      (match
         (session_ok (Server.solve_session e sid)).Server.Session.outcome
       with
       | Server.Session.Sat m ->
         check_bool "base clause satisfied" true (m.(0) || m.(1))
       | o -> Alcotest.failf "post-POP SOLVE answered %s" (outcome_name o));
      match (session_ok (Server.session_pop e sid)).Server.Session.outcome
      with
      | Server.Session.Failed _ -> ()
      | o -> Alcotest.failf "unmatched POP answered %s" (outcome_name o))

let test_session_eviction_lru () =
  with_engine ~sessions:2 (fun e ->
      let s0 = open_ok e in
      let s1 = open_ok e in
      ignore (session_ok (Server.session_add e s1 [ [| 1 |] ]));
      (* Table full, both idle: the third OPEN evicts s0 (LRU). *)
      let s2 = open_ok e in
      (match
         (session_ok (Server.session_push e s0)).Server.Session.outcome
       with
       | Server.Session.Evicted -> ()
       | o -> Alcotest.failf "op on the evicted session answered %s"
                (outcome_name o));
      (* The survivors still work. *)
      (match
         (session_ok (Server.solve_session e s1)).Server.Session.outcome
       with
       | Server.Session.Sat _ -> ()
       | o -> Alcotest.failf "s1 SOLVE answered %s" (outcome_name o));
      ignore (session_ok (Server.session_add e s2 [ [| -1 |] ]));
      let s = Server.stats e in
      check_int "one eviction" 1 (get s Sessions_evicted);
      check_int "two live sessions" 2 (get s Sessions_live))

let test_session_ttl_eviction () =
  with_engine ~session_ttl:0.05 (fun e ->
      let sid = open_ok e in
      Unix.sleepf 0.3;
      (match
         (session_ok (Server.session_add e sid [ [| 1 |] ]))
           .Server.Session.outcome
       with
       | Server.Session.Evicted -> ()
       | o -> Alcotest.failf "op after the TTL answered %s"
                (outcome_name o));
      let s = Server.stats e in
      check_int "TTL eviction counted" 1 (get s Sessions_evicted);
      check_int "no live sessions" 0 (get s Sessions_live))

let test_session_deadline_interrupt () =
  with_engine ~workers:1 (fun e ->
      let sid = open_ok e in
      ignore (session_ok (Server.session_push e sid));
      ignore
        (session_ok
           (Server.session_add e sid
              (Array.to_list (php 11).Cnf.Formula.clauses)));
      let t0 = Unix.gettimeofday () in
      (match
         (session_ok (Server.solve_session e ~deadline:0.15 sid))
           .Server.Session.outcome
       with
       | Server.Session.Timeout ->
         let took = Unix.gettimeofday () -. t0 in
         check_bool
           (Printf.sprintf "answered near the deadline (%.2fs)" took)
           true (took < 5.0)
       | o -> Alcotest.failf "php(11,10) in 150ms answered %s"
                (outcome_name o));
      (* The interrupted session stays usable: retire the frame and
         the remaining (empty) problem is satisfiable. *)
      ignore (session_ok (Server.session_pop e sid));
      match
        (session_ok (Server.solve_session e sid)).Server.Session.outcome
      with
      | Server.Session.Sat _ -> ()
      | o -> Alcotest.failf "post-interrupt SOLVE answered %s"
               (outcome_name o))

let test_bad_deadline_rejected () =
  with_engine (fun e ->
      let f = Cnf.Formula.create ~num_vars:1 [ [| 1 |] ] in
      let expect_bad = function
        | Error "bad-deadline" -> ()
        | Error r -> Alcotest.failf "expected bad-deadline, got %s" r
        | Ok _ -> Alcotest.fail "invalid deadline was accepted"
      in
      (match Server.submit e ~deadline:Float.nan (flat f) with
       | Ok _ -> Alcotest.fail "NaN deadline was accepted"
       | Error r -> Alcotest.(check string) "NaN rejected" "bad-deadline" r);
      (match Server.submit e ~deadline:(-0.5) (flat f) with
       | Ok _ -> Alcotest.fail "negative deadline was accepted"
       | Error r ->
         Alcotest.(check string) "negative rejected" "bad-deadline" r);
      let sid = open_ok e in
      expect_bad
        (Result.map (fun (_ : Server.Session.answer) -> ())
           (Server.solve_session e ~deadline:Float.nan sid));
      expect_bad
        (Result.map
           (fun (_ : Server.Session.ticket) -> ())
           (Server.submit_session_solve e ~deadline:Float.neg_infinity sid));
      check_int "all four rejections counted" 4 (stat e Rejected);
      (* A generous but valid deadline still solves. *)
      match Server.solve e ~deadline:5.0 (flat f) with
      | Ok { Server.verdict = Server.Sat _; _ } -> ()
      | _ -> Alcotest.fail "valid deadline must solve")

let test_model_line_clamps () =
  Alcotest.(check string) "clamps extra entries" "v 1 -2 3 0"
    (Server.Protocol.model_line ~num_vars:3
       [| true; false; true; true; false |]);
  Alcotest.(check string) "pads missing entries negative" "v 1 -2 -3 0"
    (Server.Protocol.model_line ~num_vars:3 [| true |]);
  Alcotest.(check string) "exact width unchanged" "v -1 2 0"
    (Server.Protocol.model_line ~num_vars:2 [| false; true |]);
  Alcotest.(check string) "no variables" "v 0"
    (Server.Protocol.model_line ~num_vars:0 [||])

let test_session_fuzz () =
  (* 4 domains × (one-shot + framed session round) against brute
     force, over a 3-session table so concurrent OPENs LRU-evict
     idle sessions out from under their owners (an owner that finds
     its session evicted reopens and carries on).  Every engine
     request is counted at the call site, so the reconciliation
     invariant (requests = submitted + cache_hits + warm_hits +
     dedup_joins + rejected + session_ops) is checked exactly. *)
  with_engine ~workers:3 ~queue:256 ~sessions:3 (fun e ->
      let n_domains = 4 and per_domain = 6 in
      let failures = Atomic.make 0 in
      let oneshots = Atomic.make 0 in
      let session_ops = Atomic.make 0 in
      let opens = Atomic.make 0 in
      let open_rejects = Atomic.make 0 in
      let complain fmt =
        Printf.ksprintf
          (fun msg ->
            Atomic.incr failures;
            print_endline ("session fuzz: " ^ msg))
          fmt
      in
      (* All three table slots can be momentarily busy (four domains):
         a rejected OPEN counts toward [rejected] and is retried. *)
      let rec open_counted () =
        match Server.open_session e with
        | Ok sid ->
          Atomic.incr opens;
          sid
        | Error _ ->
          Atomic.incr open_rejects;
          Unix.sleepf 0.002;
          open_counted ()
      in
      let sop sid op =
        Atomic.incr session_ops;
        match Server.session_submit e sid op with
        | Ok ticket -> Server.Session.await ticket
        | Error r -> Alcotest.failf "session op rejected: %s" r
      in
      let worker d () =
        let rng = Aig.Rng.create (0x5e5510 + d) in
        let sid = ref (open_counted ()) in
        for i = 1 to per_domain do
          let f = random_formula rng in
          let expected = brute_force_sat f in
          Atomic.incr oneshots;
          (match Server.solve e (flat f) with
           | Ok a -> (
             match a.Server.verdict with
             | Server.Sat m ->
               if not (Cnf.Formula.eval f m) then
                 complain "domain %d case %d: bad one-shot model" d i
             | Server.Unsat ->
               if expected then
                 complain "domain %d case %d: wrong one-shot UNSAT" d i
             | Server.Timeout | Server.Failed _ ->
               complain "domain %d case %d: one-shot non-answer" d i)
           | Error r ->
             complain "domain %d case %d: one-shot rejected: %s" d i r);
          (* Mirror the same formula in the session, under a frame so
             the session resets between rounds.  [finish] reopens
             after an eviction and replays the round. *)
          let rec session_round attempts =
            if attempts > 3 then
              complain "domain %d case %d: evicted repeatedly" d i
            else begin
              let evicted = ref false in
              let step op =
                if not !evicted then begin
                  let a = sop !sid op in
                  match a.Server.Session.outcome with
                  | Server.Session.Evicted -> evicted := true; None
                  | o -> Some o
                end
                else None
              in
              ignore (step Server.Session.Push);
              ignore
                (step
                   (Server.Session.Add
                      (Array.to_list f.Cnf.Formula.clauses)));
              (match step (Server.Session.Solve { deadline = None }) with
               | Some (Server.Session.Sat m) ->
                 if not expected then
                   complain "domain %d case %d: session SAT vs UNSAT" d i
                 else if
                   not
                     (Cnf.Formula.eval f
                        (fit_model ~num_vars:f.Cnf.Formula.num_vars m))
                 then complain "domain %d case %d: bad session model" d i
               | Some (Server.Session.Unsat _) ->
                 if expected then
                   complain "domain %d case %d: session UNSAT vs SAT" d i
               | Some o ->
                 complain "domain %d case %d: session answered %s" d i
                   (outcome_name o)
               | None -> ());
              ignore (step Server.Session.Pop);
              if !evicted then begin
                sid := open_counted ();
                session_round (attempts + 1)
              end
            end
          in
          session_round 0
        done;
        ignore (sop !sid Server.Session.Close)
      in
      let ds = List.init n_domains (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      check_int "no failures" 0 (Atomic.get failures);
      (* Close retirements land asynchronously; wait until no session
         is live and the ledger has caught up before reconciling. *)
      await_counter "every session retired"
        (fun () ->
          let s = Server.stats e in
          get s Sessions_live + List.length (Server.Metrics.reconcile s))
        0;
      let s = Server.stats e in
      check_ledger s;
      check_int "session ops reconcile exactly" (Atomic.get session_ops)
        (get s Session_ops);
      check_int "requests reconcile exactly"
        (Atomic.get oneshots + Atomic.get session_ops
        + Atomic.get open_rejects)
        (Server.Metrics.requests s);
      check_int "opens reconcile" (Atomic.get opens) (get s Sessions_opened))

(* --- warm starts ----------------------------------------------------- *)

(* Every solve capped at [n] conflicts: a job that needs more stops
   undecided, deterministically, and answers [Timeout]. *)
let max_conflicts n = { Sat.Solver.no_limits with max_conflicts = Some n }

let solve_ok e f =
  match Server.solve e (flat f) with
  | Ok a -> a
  | Error r -> Alcotest.failf "solve rejected: %s" r

let test_warm_resume_after_forget () =
  let f = php 8 in
  let fp = Cnf.Fingerprint.of_flat (flat f) in
  let cold =
    with_engine ~workers:1 (fun e ->
        let cold = solve_ok e f in
        check_bool "php(8,7) UNSAT" true (cold.Server.verdict = Server.Unsat);
        check_bool "cold answer is fresh" true
          (cold.Server.source = Server.Solved);
        (* A decided formula leaves no snapshot: with its verdict
           forgotten, the resubmission re-solves fresh, on the cold
           trajectory. *)
        Server.forget_verdict e fp;
        let again = solve_ok e f in
        check_bool "re-solve is fresh" true
          (again.Server.source = Server.Solved
          && again.Server.verdict = Server.Unsat);
        check_int "re-solve replays the cold conflicts"
          cold.Server.stats.Sat.Solver.conflicts
          again.Server.stats.Sat.Solver.conflicts;
        let s = Server.stats e in
        check_int "no warm hit from a decided job" 0 (get s Warm_hits);
        check_int "no snapshot kept" 0 (get s Warm_entries);
        check_int "both solves were cold" 2 (get s Submitted);
        cold)
  in
  (* Capped at half the cold conflicts, the first solve stops undecided
     and its snapshot stays: the resubmission resumes from it. *)
  let budget = cold.Server.stats.Sat.Solver.conflicts / 2 in
  with_engine ~workers:1 ~limits:(max_conflicts budget) (fun e ->
      let first = solve_ok e f in
      check_bool "the capped solve stops undecided" true
        (first.Server.verdict = Server.Timeout);
      check_int "at the cap" budget first.Server.stats.Sat.Solver.conflicts;
      (* A timeout is never in the verdict cache, and forgetting drops
         no snapshot. *)
      Server.forget_verdict e fp;
      let warm = solve_ok e f in
      check_bool "warm answer is fresh, not cached" true
        (warm.Server.source = Server.Solved);
      check_bool "warm verdict agrees" true
        (warm.Server.verdict = Server.Unsat);
      let s = Server.stats e in
      check_int "one warm hit" 1 (get s Warm_hits);
      check_int "the hit was seeded into a solver" 1 (get s Warm_seeded);
      check_int "only the first pass counted as submitted" 1 (get s Submitted);
      check_int "both passes completed" 2 (get s Completed);
      check_int "the decided resume left no snapshot" 0 (get s Warm_entries);
      check_bool "seeded resume refutes with fewer conflicts" true
        (warm.Server.stats.Sat.Solver.conflicts
         < cold.Server.stats.Sat.Solver.conflicts))

(* The warm cache holds state only for jobs that stopped undecided:
   decided jobs leave nothing, a timeout leaves exactly one snapshot,
   and a failed job keeps none, not even the one it was seeded from. *)
let test_warm_keeps_only_timeouts () =
  with_engine ~workers:1 (fun e ->
      let easy = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |] ] in
      check_bool "SAT decided" true
        (match (solve_ok e easy).Server.verdict with
         | Server.Sat _ -> true
         | _ -> false);
      check_bool "UNSAT decided" true
        ((solve_ok e (php 6)).Server.verdict = Server.Unsat);
      check_int "decided solves keep no snapshot" 0 (stat e Warm_entries);
      let hard = php 11 in
      (match Server.solve e ~deadline:0.5 (flat hard) with
       | Ok { Server.verdict = Server.Timeout; stats; _ } ->
         check_bool "the timed-out job ran" true
           (stats.Sat.Solver.conflicts > 0)
       | Ok _ -> Alcotest.fail "php(11,10) must time out in 0.5 s"
       | Error r -> Alcotest.failf "rejected: %s" r);
      check_int "a timeout keeps one snapshot" 1 (stat e Warm_entries);
      let t = submit_ok e hard in
      await_counter "the resume started seeded"
        (fun () -> stat e Warm_seeded)
        1;
      Server.shutdown e;
      (match (Server.await e t).Server.verdict with
       | Server.Failed _ -> ()
       | _ -> Alcotest.fail "the interrupted resume must answer FAILED");
      let s = Server.stats e in
      check_int "a failed job keeps no snapshot" 0 (get s Warm_entries);
      check_ledger s)

let test_warm_disabled_when_zero () =
  with_engine ~warm:0 (fun e ->
      let f = php 7 in
      (match Server.solve e (flat f) with
       | Ok { Server.verdict = Server.Unsat; _ } -> ()
       | _ -> Alcotest.fail "php(7,6) must be UNSAT");
      Server.forget_verdict e (Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f));
      (match Server.solve e (flat f) with
       | Ok { Server.verdict = Server.Unsat; source = Server.Solved; _ } -> ()
       | _ -> Alcotest.fail "resubmission must be a fresh cold solve");
      let s = Server.stats e in
      check_int "no warm hits with warm_capacity = 0" 0 (get s Warm_hits);
      check_int "no warm seeds" 0 (get s Warm_seeded);
      check_int "both solves were cold" 2 (get s Submitted))

let test_warm_timeout_resume () =
  with_engine ~workers:1 (fun e ->
      let f = php 9 in
      match Server.solve e ~deadline:0.02 (flat f) with
      | Error r -> Alcotest.failf "rejected: %s" r
      | Ok { Server.verdict = Server.Unsat; _ } ->
        (* The machine beat the tight deadline — nothing to resume. *)
        ()
      | Ok { Server.verdict = Server.Timeout; _ } ->
        (* A timeout never enters the verdict cache, but the
           interrupted run's snapshot does enter the warm cache: the
           resubmission resumes from it instead of restarting. *)
        (match Server.solve e (flat f) with
         | Ok { Server.verdict = Server.Unsat; source = Server.Solved; _ } ->
           ()
         | Ok _ -> Alcotest.fail "resumed php(9,8) must refute"
         | Error r -> Alcotest.failf "resume rejected: %s" r);
        let s = Server.stats e in
        check_int "the resume was a warm hit" 1 (get s Warm_hits);
        check_int "the interrupted snapshot was seeded" 1 (get s Warm_seeded)
      | Ok _ -> Alcotest.fail "php(9,8) answers UNSAT or Timeout")

let test_flat_bridges_verdict_cache () =
  with_engine (fun e ->
      let f =
        Cnf.Formula.create ~num_vars:4
          [ [| 1; 2 |]; [| -1; 3 |]; [| -3; 4 |]; [| 2; -4 |] ]
      in
      let m0 =
        match Server.solve e (flat f) with
        | Ok { Server.verdict = Server.Sat m; _ } -> m
        | _ -> Alcotest.fail "formula is satisfiable"
      in
      (* The same clauses, shuffled and with a duplicate literal: the
         canonical fingerprint matches, so the answer must come from
         the cache. *)
      let g =
        flat
          (Cnf.Formula.create ~num_vars:4
             [ [| 2; -4; 2 |]; [| 4; -3 |]; [| 2; 1 |]; [| 3; -1 |] ])
      in
      (match Server.solve e g with
       | Ok { Server.verdict = Server.Sat m; source = Server.Cache_hit; _ } ->
         Alcotest.(check (array bool)) "bit-identical model" m0 m
       | Ok _ -> Alcotest.fail "expected a cache hit for the shuffled twin"
       | Error r -> Alcotest.failf "twin submit rejected: %s" r);
      (* A store parsed from a DIMACS file by the mmap reader and one
         built in memory from a formula share one verdict space. *)
      let h = Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| -1; 2 |] ] in
      let path = Filename.temp_file "eda4sat_bridge" ".cnf" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Cnf.Dimacs.write_file h path;
          (match Server.solve e (Cnf.Dimacs.read_flat_file path) with
           | Ok { Server.verdict = Server.Sat _; source = Server.Solved; _ } ->
             ()
           | _ -> Alcotest.fail "file solve should be fresh");
          match Server.solve e (flat h) with
          | Ok { Server.verdict = Server.Sat _; source = Server.Cache_hit; _ }
            ->
            ()
          | _ -> Alcotest.fail "in-memory twin should hit the file's entry"))

(* Two passes over a random batch under a conflict cap that stops the
   harder formulas (most of the 3-SAT half) undecided, with every verdict forgotten in between:
   the decided ones re-solve fresh, the timed-out ones resume warm, and
   the ledger still reconciles to the request count exactly. *)
let test_warm_fuzz () =
  with_engine ~workers:3 ~cache:256 ~warm:256 ~limits:(max_conflicts 2)
    (fun e ->
      let rng = Aig.Rng.create 20260808 in
      let formulas =
        List.init 20 (fun _ -> random_formula rng)
        @ List.init 20 (fun _ -> random_3sat rng)
      in
      let pass () =
        List.map (fun f -> (f, submit_ok e f)) formulas
        |> List.map (fun (f, t) -> (f, Server.await e t))
      in
      let verify (f, (a : Server.answer)) =
        match a.Server.verdict with
        | Server.Sat m ->
          check_bool "model satisfies" true (Cnf.Formula.eval f m)
        | Server.Unsat ->
          check_bool "brute force agrees UNSAT" false (brute_force_sat f)
        | Server.Timeout -> ()
        | Server.Failed r -> Alcotest.failf "unexpected failure: %s" r
      in
      let first = pass () in
      List.iter verify first;
      let undecided l =
        List.length
          (List.filter
             (fun (_, (a : Server.answer)) -> a.Server.verdict = Server.Timeout)
             l)
      in
      check_bool "the cap stopped some formulas undecided" true
        (undecided first > 0);
      List.iter
        (fun f ->
          Server.forget_verdict e (Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f)))
        formulas;
      let second = pass () in
      List.iter verify second;
      List.iter2
        (fun (_, (a : Server.answer)) (_, (b : Server.answer)) ->
          check_bool "warm verdict agrees with cold" true
            (match (a.Server.verdict, b.Server.verdict) with
             | Server.Sat _, Server.Unsat | Server.Unsat, Server.Sat _ -> false
             | _ -> true))
        first second;
      check_bool "the resumes decided formulas the cap had stopped" true
        (undecided second < undecided first);
      let s = Server.stats e in
      check_int "every request accounted" 80 (Server.Metrics.requests s);
      check_ledger s;
      check_bool "the second pass warm-resumed" true (get s Warm_hits > 0))

(* --- cube-and-conquer escalation ------------------------------------- *)

let cube_cc ?(trigger = 50) ?(jobs = 2) () =
  {
    Server.cube_trigger = trigger;
    cube_count = 8;
    cube_jobs = jobs;
    cube_probe_limit = 16;
  }

let test_cube_escalation_refutes () =
  with_engine ~workers:1 ~cube:(cube_cc ()) (fun e ->
      (* php(8,7) burns far more than 50 conflicts: the first slice
         trips the hardness trigger and the job escalates to
         cube-and-conquer, which must still answer plain UNSAT. *)
      let f = php 8 in
      (match Server.solve e (flat f) with
       | Ok { Server.verdict = Server.Unsat; source = Server.Solved; _ } -> ()
       | Ok _ -> Alcotest.fail "cubed php(8,7) must answer fresh UNSAT"
       | Error r -> Alcotest.failf "rejected: %s" r);
      let s = Server.stats e in
      check_int "the job was cubed" 1 (get s Cubed);
      check_bool "cubes were solved" true (get s Cubes_solved > 0);
      (* An easy formula answers inside the trigger slice and must not
         cube. *)
      let easy = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |] ] in
      (match Server.solve e (flat easy) with
       | Ok { Server.verdict = Server.Sat m; _ } ->
         check_bool "model satisfies" true (Cnf.Formula.eval easy m)
       | _ -> Alcotest.fail "easy formula must answer SAT");
      let s = Server.stats e in
      check_int "easy job did not cube" 1 (get s Cubed);
      (* Cube jobs must not feed the warm cache: with the verdict
         forgotten, the resubmission is a cold solve (which cubes
         again), never a warm resume of cube-local state. *)
      Server.forget_verdict e (Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f));
      (match Server.solve e (flat f) with
       | Ok { Server.verdict = Server.Unsat; source = Server.Solved; _ } -> ()
       | _ -> Alcotest.fail "resubmission must re-solve fresh");
      let s = Server.stats e in
      check_int "no warm hit from a cubed job" 0 (get s Warm_hits);
      check_int "no warm seed from a cubed job" 0 (get s Warm_seeded);
      check_int "the resubmission cubed too" 2 (get s Cubed);
      (* The request ledger still reconciles with cube answers in it. *)
      check_ledger s;
      check_int "all answers decisive" 0 (get s Timeouts + get s Failures))

let test_cube_partial_never_cached () =
  with_engine ~workers:1 ~cube:(cube_cc ~trigger:10 ()) (fun e ->
      let f = php 9 in
      match Server.solve e ~deadline:0.02 (flat f) with
      | Error r -> Alcotest.failf "rejected: %s" r
      | Ok { Server.verdict = Server.Unsat; _ } ->
        (* The machine finished inside the deadline — the race this
           test provokes did not happen. *)
        ()
      | Ok a ->
        (* The deadline fired mid-conquest: a partially refuted cube
           run must resolve as a resource answer (or an explicit
           failure), never as UNSAT for the base formula. *)
        (match a.Server.verdict with
         | Server.Timeout | Server.Failed _ -> ()
         | Server.Sat _ -> Alcotest.fail "php(9,8) has no model"
         | Server.Unsat ->
           Alcotest.fail "partial cube conquest published UNSAT");
        (* Nothing may have entered the verdict cache: the resubmission
           solves fresh and gets the real answer. *)
        (match Server.solve e (flat f) with
         | Ok { Server.verdict = Server.Unsat; source = Server.Solved; _ } ->
           ()
         | Ok { Server.source = Server.Cache_hit; _ } ->
           Alcotest.fail "partial cube answer was cached"
         | Ok _ -> Alcotest.fail "resubmitted php(9,8) must refute fresh"
         | Error r -> Alcotest.failf "resubmit rejected: %s" r);
        (* And nothing may have entered the warm cache either — the
           interrupted run was a cube job. *)
        let s = Server.stats e in
        check_int "no warm resume from the aborted cube run" 0
          (get s Warm_hits))

(* The warm two-pass fuzz with cubing enabled: hard members escalate,
   easy ones take the plain path, and the ledger still reconciles —
   with no warm entry ever coming out of a cubed job. *)
let test_warm_fuzz_with_cubes () =
  with_engine ~workers:3 ~cache:256 ~warm:256 ~cube:(cube_cc ~trigger:20 ())
    (fun e ->
      let rng = Aig.Rng.create 20260809 in
      let formulas = php 7 :: php 8 :: List.init 20 (fun _ -> random_formula rng) in
      let pass () =
        List.map (fun f -> (f, submit_ok e f)) formulas
        |> List.map (fun (f, t) -> (f, Server.await e t))
      in
      let verify (f, (a : Server.answer)) =
        match a.Server.verdict with
        | Server.Sat m ->
          check_bool "model satisfies" true (Cnf.Formula.eval f m)
        | Server.Unsat ->
          if f.Cnf.Formula.num_vars <= 14 then
            check_bool "brute force agrees UNSAT" false (brute_force_sat f)
        | _ -> Alcotest.fail "unexpected non-answer"
      in
      let first = pass () in
      List.iter verify first;
      List.iter
        (fun f -> Server.forget_verdict e (Cnf.Fingerprint.of_flat (Cnf.Flat.of_formula f)))
        formulas;
      let second = pass () in
      List.iter verify second;
      List.iter2
        (fun (_, (a : Server.answer)) (_, (b : Server.answer)) ->
          check_bool "second pass agrees with first" true
            (match (a.Server.verdict, b.Server.verdict) with
             | Server.Sat _, Server.Sat _ -> true
             | Server.Unsat, Server.Unsat -> true
             | _ -> false))
        first second;
      let s = Server.stats e in
      check_bool "the php members cubed" true (get s Cubed >= 2);
      check_int "every request accounted"
        (2 * List.length formulas)
        (Server.Metrics.requests s);
      check_ledger s;
      check_int "all answers decisive" 0 (get s Timeouts + get s Failures))

(* A job beyond the solver's variable limit answers FAILED with the
   solver's message, and the ledger still reconciles. *)
let test_variable_limit_fails_cleanly () =
  with_engine ~workers:1 (fun e ->
      let huge =
        { Cnf.Flat.num_vars = 1 lsl 30; offsets = [| 0 |]; lits = [||] }
      in
      (match Server.solve e huge with
       | Ok { Server.verdict = Server.Failed msg; _ } ->
         Alcotest.(check string) "solver message"
           "Invalid_argument(\"Sat.Solver: 1073741824 variables exceed the \
            solver's limit of 1073741823 (2^30 - 1)\")"
           msg
       | Ok _ -> Alcotest.fail "expected FAILED"
       | Error r -> Alcotest.failf "rejected: %s" r);
      check_int "one failure" 1 (stat e Failures);
      check_ledger (Server.stats e))

(* Every engine refusal, driven once: each adds exactly 1 to
   [rejected] and leaves the ledger reconciled. *)
let test_every_refusal_counted () =
  with_engine ~workers:1 ~queue:1 ~sessions:1 (fun e ->
      let refused expected attempt =
        let before = stat e Rejected in
        (match attempt () with
         | Error r -> Alcotest.(check string) "refusal" expected r
         | Ok _ -> Alcotest.failf "expected %s" expected);
        let s = Server.stats e in
        check_int (expected ^ " counted once") (before + 1) (get s Rejected);
        check_ledger s
      in
      let drop r = Result.map ignore r in
      let submit ?deadline f () = drop (Server.submit e ?deadline (flat f)) in
      refused "bad-deadline" (submit ~deadline:Float.nan (php 5));
      refused "unknown session" (fun () ->
          drop (Server.session_add e 12345 [ [| 1 |] ]));
      (* A long solve keeps the only session and the only worker busy:
         OPEN finds no idle eviction victim. *)
      let sid = open_ok e in
      ignore
        (session_ok
           (Server.session_add e sid
              (Array.to_list (php 11).Cnf.Formula.clauses)));
      ignore
        (Server.session_submit e sid
           (Server.Session.Solve { deadline = None }));
      refused "session table full (capacity 1)" (fun () ->
          drop (Server.open_session e));
      let rec fill n =
        match Server.session_submit e sid Server.Session.Push with
        | Ok _ when n < 2000 -> fill (n + 1)
        | r -> r
      in
      refused "session queue full" (fun () -> drop (fill 0));
      await_counter "the worker took the session"
        (fun () -> stat e Queue_depth)
        0;
      ignore (submit_ok e (php 12));
      refused "queue full (capacity 1)" (submit (php 13));
      Server.shutdown e;
      refused "server shutting down" (submit (php 5)))

(* --- metrics registry ------------------------------------------------ *)

(* Every counter non-zero and two clients, one id needing escapes: the
   STATS layout is pinned byte for byte. *)
let test_metrics_json_pinned () =
  let open Server.Metrics in
  let m = create () in
  add m ~n:9 Submitted;
  List.iter
    (fun (k, s) -> add m k; observe m Latency s)
    [ (Solved_sat, 0.0125); (Solved_sat, 0.25); (Solved_unsat, 1.5);
      (Timeouts, 0.0004); (Failures, -1.0) ];
  add m ~n:2 Warm_hits;
  add m Warm_seeded;
  add m ~n:3 Rejected;
  add m Cache_hits;
  observe m Latency 0.00002;
  add m Dedup_joins;
  observe m Latency 0.0333;
  add m ~n:2 Cubed;
  add m ~n:5 Cubes_solved;
  add m ~n:3 Cube_steals;
  List.iter (observe m Parse) [ 0.002; 0.0015; 0.0031 ];
  add m ~n:4 Session_ops;
  add m ~n:3 Sessions_opened;
  add m Sessions_closed;
  add m Sessions_evicted;
  add m Session_solves;
  observe m Latency 0.0081;
  List.iter
    (fun (client, leg) -> count_client m ~client leg)
    [ ("alice", `Requests); ("alice", `Requests); ("alice", `Requests);
      ("alice", `Answered); ("alice", `Answered); ("alice", `Rejected);
      ("b\"o\\b", `Requests); ("b\"o\\b", `Answered);
      ("b\"o\\b", `Rejected) ];
  let s =
    snapshot m
      ~sampled:
        [ (Queue_depth, 2); (Inflight, 3); (Cache_entries, 4);
          (Sessions_live, 1); (Warm_entries, 5) ]
  in
  Alcotest.(check string) "STATS layout"
    "{\"submitted\": 9, \"completed\": 5, \"solved_sat\": 2, \
     \"solved_unsat\": 1, \"timeouts\": 1, \"failures\": 1, \
     \"rejected\": 3, \"cache_hits\": 1, \"warm_hits\": 2, \
     \"warm_seeded\": 1, \"cubed\": 2, \"cubes_solved\": 5, \
     \"cube_steals\": 3, \"dedup_joins\": 1, \"session_ops\": 4, \
     \"sessions_opened\": 3, \
     \"sessions_closed\": 1, \"sessions_evicted\": 1, \
     \"session_solves\": 1, \"sessions_live\": 1, \"queue_depth\": 2, \
     \"inflight\": 3, \"cache_entries\": 4, \"latency_count\": 8, \
     \"p50_ms\": 8.100, \"p95_ms\": 1500.000, \"max_ms\": 1500.000, \
     \"parse_count\": 3, \"parse_p50_ms\": 2.000, \"parse_p95_ms\": 3.100, \
     \"parse_max_ms\": 3.100, \"warm_entries\": 5, \
     \"clients\": {\"alice\": {\"requests\": 3, \
     \"answered\": 2, \"rejected\": 1}, \"b\\\"o\\\\b\": {\"requests\": 1, \
     \"answered\": 1, \"rejected\": 1}}}"
    (to_json s);
  check_ledger s;
  check_int "requests sum the six legs" 20 (requests s);
  Alcotest.(check (option int)) "client read" (Some 2)
    (client s "alice" `Answered);
  Alcotest.(check (option int)) "unknown client" None
    (client s "carol" `Requests)

(* The window keeps the latest 4096 samples; percentiles are
   nearest-rank over them, the max and count are lifetime. *)
let test_metrics_window_wraps () =
  let open Server.Metrics in
  let m = create () in
  for i = 1 to 5000 do
    observe m Latency (float_of_int i *. 0.001)
  done;
  let json = to_json (snapshot m ~sampled:[]) in
  let want =
    "\"latency_count\": 5000, \"p50_ms\": 2952.000, \"p95_ms\": 4796.000, \
     \"max_ms\": 5000.000"
  in
  let rec has i =
    i + String.length want <= String.length json
    && (String.sub json i (String.length want) = want || has (i + 1))
  in
  check_bool "window stats" true (has 0)

let test_metrics_reconcile_reports () =
  let open Server.Metrics in
  let m = create () in
  add m Submitted;
  add m ~n:2 Warm_seeded;
  add m Sessions_opened;
  Alcotest.(check (list string)) "each violated identity, once"
    [ "completed = 0 <> submitted + warm_hits = 1";
      "sessions_opened = 1 <> sessions_live + sessions_closed + \
       sessions_evicted = 0";
      "warm_seeded = 2 > warm_hits = 0" ]
    (reconcile (snapshot m ~sampled:[]))

(* --- completion cells ------------------------------------------------ *)

let test_ivar_contract () =
  let c = Sat.Ivar.create () in
  check_bool "empty" true (Sat.Ivar.peek c = None);
  let seen = ref [] in
  Sat.Ivar.upon c (fun v -> seen := ("a", v) :: !seen);
  Sat.Ivar.upon c (fun _ -> failwith "boom");
  Sat.Ivar.upon c (fun v -> seen := ("b", v) :: !seen);
  let waiters =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Sat.Ivar.await c))
  in
  (* Let both domains block before the fill. *)
  Unix.sleepf 0.05;
  check_bool "first fill wins" true (Sat.Ivar.fill c 7);
  check_bool "second fill loses" false (Sat.Ivar.fill c 8);
  check_bool "the first value stays" true (Sat.Ivar.peek c = Some 7);
  List.iter (fun d -> check_int "both domains awaited" 7 (Domain.join d))
    waiters;
  Alcotest.(check (list (pair string int)))
    "callbacks ran once, in order, past a raising one"
    [ ("a", 7); ("b", 7) ] (List.rev !seen);
  let here = ref None in
  Sat.Ivar.upon c (fun v -> here := Some (v, Domain.self ()));
  check_bool "upon a full cell runs at once, on the caller" true
    (!here = Some (7, Domain.self ()))

(* A callback may re-enter the engine: it runs with no engine lock
   held, on the resolving domain when the ticket was pending and on the
   caller when it was already answered. *)
let test_on_answer_reenters () =
  with_engine ~workers:1 (fun e ->
      let me = Domain.self () in
      let blocker = submit_ok e (php 9) in
      let f = Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -2; 3 |] ] in
      let g = Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| -1; 2 |] ] in
      let pending = submit_ok e f in
      check_bool "queued behind the blocker" true (Server.poll e pending = None);
      let sid = open_ok e in
      let op =
        match Server.session_submit e sid (Server.Session.Add [ [| 1 |] ]) with
        | Ok tk -> tk
        | Error r -> Alcotest.failf "session op rejected: %s" r
      in
      check_bool "session op pending" true (Server.Session.poll op = None);
      let fired = Atomic.make 0 in
      let off_caller = Atomic.make true in
      let verdict = Atomic.make None and outcome = Atomic.make None in
      let followup = Atomic.make None in
      let reenter () =
        if Domain.self () = me then Atomic.set off_caller false;
        ignore (Server.stats e);
        Atomic.incr fired
      in
      Server.on_answer e pending (fun a ->
          Atomic.set verdict (Some a.Server.verdict);
          Atomic.set followup (Some (Server.submit e (flat g)));
          reenter ());
      Server.Session.on_answer op (fun a ->
          Atomic.set outcome (Some a.Server.Session.outcome);
          ignore (Server.session_submit e sid Server.Session.Push);
          reenter ());
      ignore (Server.await e blocker);
      await_counter "both pending callbacks ran" (fun () -> Atomic.get fired) 2;
      check_bool "pending callbacks ran on the resolving domain" true
        (Atomic.get off_caller);
      check_bool "the pending ticket answered SAT" true
        (match Atomic.get verdict with Some (Server.Sat _) -> true | _ -> false);
      check_bool "the session op answered OK" true
        (Atomic.get outcome = Some Server.Session.Ok_done);
      (match Atomic.get followup with
       | Some (Ok tk) ->
         check_bool "the re-entrant submit answers" true
           (match (Server.await e tk).Server.verdict with
            | Server.Sat _ -> true
            | _ -> false)
       | _ -> Alcotest.fail "the re-entrant submit was rejected");
      let hit = submit_ok e f in
      let ran = ref None in
      Server.on_answer e hit (fun a ->
          ignore (Server.stats e);
          ran := Some (a.Server.source, Domain.self ()));
      check_bool "a cache hit's callback runs at once, on the caller" true
        (!ran = Some (Server.Cache_hit, me));
      ignore (session_ok (Server.close_session e sid)))

(* One domain drives one-shot solves and session open/close pairs
   while this one takes paced snapshots: every snapshot must satisfy
   the ledger, in flight or not. *)
let test_stats_reconcile_under_traffic () =
  with_engine ~workers:2 (fun e ->
      let wanted = 1000 in
      let taken = Atomic.make 0 in
      let driver =
        Domain.spawn (fun () ->
            let rng = Aig.Rng.create 0x1ed6e7 in
            let rounds = ref 0 in
            while Atomic.get taken < wanted && !rounds < 20_000 do
              incr rounds;
              ignore (Server.solve e (flat (random_formula rng)));
              match Server.open_session e with
              | Ok sid -> ignore (Server.close_session e sid)
              | Error r -> failwith r
            done;
            !rounds)
      in
      (* Paced: a snapshot holds the engine lock while it sorts the
         latency window, and a tight loop would starve the driver. *)
      let broken = ref [] in
      while Atomic.get taken < wanted do
        Atomic.incr taken;
        (match Server.Metrics.reconcile (Server.stats e) with
         | [] -> ()
         | v -> broken := v :: !broken);
        Unix.sleepf 0.0002
      done;
      let rounds = Domain.join driver in
      check_bool (Printf.sprintf "traffic ran (%d rounds)" rounds) true
        (rounds > 10);
      match !broken with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%d of %d snapshots break the ledger, e.g. %s"
          (List.length !broken) wanted (String.concat "; " v))

(* --- job queue ------------------------------------------------------- *)

let test_job_queue_ordering () =
  let q = Server.Job_queue.create ~capacity:8 () in
  check_bool "push a" true (Server.Job_queue.push q ~priority:0 "a");
  check_bool "push b" true (Server.Job_queue.push q ~priority:5 "b");
  check_bool "push c" true (Server.Job_queue.push q ~priority:5 "c");
  check_bool "push d" true (Server.Job_queue.push q ~priority:(-1) "d");
  Server.Job_queue.close q;
  let drain = List.filter_map (fun () -> Server.Job_queue.pop q)
      [ (); (); (); () ] in
  Alcotest.(check (list string))
    "priority order, FIFO within a priority" [ "b"; "c"; "a"; "d" ] drain;
  check_bool "drained" true (Server.Job_queue.pop q = None)

let test_job_queue_backpressure () =
  let q = Server.Job_queue.create ~capacity:2 () in
  check_bool "1 fits" true (Server.Job_queue.push q ~priority:0 1);
  check_bool "2 fits" true (Server.Job_queue.push q ~priority:9 2);
  check_bool "3 rejected" false (Server.Job_queue.push q ~priority:99 3);
  check_int "length" 2 (Server.Job_queue.length q)

let suite =
  [
    ("solve basics", `Quick, test_solve_basics);
    ("cache hit is bit-identical", `Quick, test_cache_hit_bit_identical);
    ("dedup solves once", `Quick, test_dedup_solves_once);
    ("deadline answers TIMEOUT", `Quick, test_deadline_timeout);
    ("full queue rejects", `Quick, test_queue_full_rejection);
    ("shutdown idempotent", `Quick, test_shutdown_idempotent);
    ("concurrent submit/await fuzz", `Quick, test_concurrent_fuzz);
    ("stats snapshots reconcile under concurrent traffic", `Quick,
     test_stats_reconcile_under_traffic);
    ("ivar completion contract", `Quick, test_ivar_contract);
    ("on_answer callbacks may re-enter the engine", `Quick,
     test_on_answer_reenters);
    ("warm start resumes after forget", `Quick, test_warm_resume_after_forget);
    ("warm cache keeps only timeouts", `Quick, test_warm_keeps_only_timeouts);
    ("warm starts disabled at capacity 0", `Quick, test_warm_disabled_when_zero);
    ("timeout snapshot resumes warm", `Quick, test_warm_timeout_resume);
    ("flat and formula share the cache", `Quick, test_flat_bridges_verdict_cache);
    ("warm two-pass fuzz reconciles", `Quick, test_warm_fuzz);
    ("cube escalation refutes and skips warm", `Quick,
     test_cube_escalation_refutes);
    ("partial cube conquest never cached", `Quick,
     test_cube_partial_never_cached);
    ("warm fuzz with cubes reconciles", `Quick, test_warm_fuzz_with_cubes);
    ("variable limit fails cleanly", `Quick,
     test_variable_limit_fails_cleanly);
    ("every refusal counted once", `Quick, test_every_refusal_counted);
    ("metrics JSON layout pinned", `Quick, test_metrics_json_pinned);
    ("metrics window wraps", `Quick, test_metrics_window_wraps);
    ("metrics reconcile reports", `Quick, test_metrics_reconcile_reports);
    ("job queue ordering", `Quick, test_job_queue_ordering);
    ("job queue backpressure", `Quick, test_job_queue_backpressure);
    ("session basics", `Quick, test_session_basics);
    ("session SOLVE behind CLOSE not executed", `Quick,
     test_solve_after_close_not_executed);
    ("session push/pop", `Quick, test_session_push_pop);
    ("session LRU eviction", `Quick, test_session_eviction_lru);
    ("session TTL eviction", `Quick, test_session_ttl_eviction);
    ("session deadline interrupt", `Quick, test_session_deadline_interrupt);
    ("bad deadline rejected", `Quick, test_bad_deadline_rejected);
    ("model line clamps/pads", `Quick, test_model_line_clamps);
    ("concurrent session fuzz", `Quick, test_session_fuzz);
  ]

(* --- no domains kept for cubing ---------------------------------------- *)

(* The OS threads of this process, from [Threads:] in /proc/self/status,
   read once two readings 20 ms apart agree: a joined domain's threads
   take a moment to exit. *)
let stable_threads () =
  let read () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> Alcotest.fail "no Threads: line"
          | Some l when String.starts_with ~prefix:"Threads:" l ->
            int_of_string
              (String.trim (String.sub l 8 (String.length l - 8)))
          | Some _ -> scan ()
        in
        scan ())
  in
  let rec settle prev tries =
    Unix.sleepf 0.02;
    let now = read () in
    if now = prev || tries = 0 then now else settle now (tries - 1)
  in
  settle (read ()) 100

(* An idle engine runs as many threads with cubing configured as
   without it: a conquest spawns its domains when a job escalates. *)
let test_cubing_keeps_no_idle_domains () =
  if Sys.file_exists "/proc/self/status" then begin
    let delta cube =
      let before = stable_threads () in
      let e = Server.create ~config:(config ~workers:2 ?cube ()) () in
      let during = stable_threads () in
      Server.shutdown e;
      during - before
    in
    (* A domain's first spawn also starts its own backup thread: take
       that thread out of both readings. *)
    Domain.join (Domain.spawn ignore);
    let plain = delta None in
    let cubing = delta (Some (cube_cc ~jobs:4 ())) in
    check_int "threads of an idle engine, cubing vs not" plain cubing
  end

let suite =
  suite
  @ [
      ("cubing keeps no idle domains", `Quick,
       test_cubing_keeps_no_idle_domains);
    ]
