(* The socket front-end, driven in-process: framing and tenant units,
   then a live Event_loop on a loopback TCP port (and a Unix socket)
   with concurrent clients — per-connection answer ordering, quotas,
   session ownership, out-of-band health probes and graceful drain. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- framing --------------------------------------------------------- *)

let feed_str f s =
  match Net.Framing.feed f (Bytes.of_string s) (String.length s) with
  | Ok lines -> lines
  | Error `Line_too_long -> Alcotest.fail "unexpected Line_too_long"

let test_framing_chunks () =
  let f = Net.Framing.create () in
  Alcotest.(check (list string)) "split mid-line" [] (feed_str f "hel");
  Alcotest.(check (list string)) "line completes" [ "hello" ]
    (feed_str f "lo\nwo");
  Alcotest.(check (list string)) "two lines, crlf stripped"
    [ "world"; "again" ]
    (feed_str f "rld\r\nagain\npart");
  check_int "partial buffered" 4 (Net.Framing.buffered f);
  Alcotest.(check (option string)) "finish yields the trailing line"
    (Some "part") (Net.Framing.finish f);
  Alcotest.(check (option string)) "finish is idempotent" None
    (Net.Framing.finish f);
  let f = Net.Framing.create () in
  Alcotest.(check (list string)) "empty lines survive" [ ""; "x"; "" ]
    (feed_str f "\nx\n\r\n")

let test_framing_bound () =
  let f = Net.Framing.create ~max_line:8 () in
  Alcotest.(check (list string)) "short ok" [ "12345678" ]
    (feed_str f "12345678\n");
  (match Net.Framing.feed f (Bytes.of_string "123456789") 9 with
   | Error `Line_too_long -> ()
   | Ok _ -> Alcotest.fail "oversized partial line accepted");
  (* A long *complete* line inside one chunk is fine — the bound is on
     buffered partial input, the anti-flooding edge. *)
  let f = Net.Framing.create ~max_line:8 () in
  Alcotest.(check (list string)) "complete line may exceed the bound"
    [ "123456789abcdef" ]
    (feed_str f "123456789abcdef\nrest\n" |> fun l -> [ List.hd l ])

(* --- tenant ---------------------------------------------------------- *)

let test_tenant_quota () =
  let t = Net.Tenant.create ~default:{ Net.Tenant.quota = 2; priority_floor = 0 } () in
  Net.Tenant.set_limits t "vip" { Net.Tenant.quota = 0; priority_floor = 5 };
  let alice = Net.Tenant.find t "alice" in
  let vip = Net.Tenant.find t "vip" in
  check_bool "1st acquire" true (Net.Tenant.try_acquire t alice);
  check_bool "2nd acquire" true (Net.Tenant.try_acquire t alice);
  check_bool "3rd over quota" false (Net.Tenant.try_acquire t alice);
  Net.Tenant.release t alice;
  check_bool "released slot reusable" true (Net.Tenant.try_acquire t alice);
  check_int "inflight tracked" 2 (Net.Tenant.inflight t alice);
  check_bool "same cell across finds" true (Net.Tenant.find t "alice" == alice);
  for _ = 1 to 10 do
    check_bool "quota 0 is unlimited" true (Net.Tenant.try_acquire t vip)
  done;
  check_int "floor raises default" 5 (Net.Tenant.effective_priority vip None);
  check_int "floor raises low" 5 (Net.Tenant.effective_priority vip (Some 3));
  check_int "high passes through" 9 (Net.Tenant.effective_priority vip (Some 9))

let test_tenant_spec () =
  (match Net.Tenant.parse_spec "bob=3" with
   | Ok ("bob", { Net.Tenant.quota = 3; priority_floor = 0 }) -> ()
   | _ -> Alcotest.fail "bob=3");
  (match Net.Tenant.parse_spec "vip=0:7" with
   | Ok ("vip", { Net.Tenant.quota = 0; priority_floor = 7 }) -> ()
   | _ -> Alcotest.fail "vip=0:7");
  check_bool "missing =" true (Result.is_error (Net.Tenant.parse_spec "bob"));
  check_bool "empty name" true (Result.is_error (Net.Tenant.parse_spec "=3"));
  check_bool "bad quota" true (Result.is_error (Net.Tenant.parse_spec "b=x"));
  check_bool "negative quota" true (Result.is_error (Net.Tenant.parse_spec "b=-1"))

(* --- conn backpressure predicates ------------------------------------ *)

let test_conn_watermarks () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      let tenants = Net.Tenant.create () in
      let conn =
        Net.Conn.create ~id:1 ~fd_in:r ~fd_out:w ~owns_fds:false ~peer:"test"
          ~max_out:100 ~max_line:1024
          ~tenant:(Net.Tenant.find tenants "anon")
      in
      check_bool "fresh conn not overloaded" false (Net.Conn.overloaded conn);
      Net.Conn.append_lines conn [ String.make 60 'x' ];
      check_bool "past half: overloaded" true (Net.Conn.overloaded conn);
      check_bool "not yet hard" false (Net.Conn.over_hard_limit conn);
      Net.Conn.append_lines conn [ String.make 60 'y' ];
      check_bool "past bound: disconnect" true (Net.Conn.over_hard_limit conn);
      check_int "pending counts both lines" 122 (Net.Conn.pending_out conn);
      (match Net.Conn.try_write conn with
       | `Ok -> ()
       | `Peer_gone -> Alcotest.fail "pipe writable");
      check_int "flushed to the pipe" 0 (Net.Conn.pending_out conn);
      check_bool "drained conn recovered" false (Net.Conn.overloaded conn))

(* --- live event loop -------------------------------------------------- *)

let temp_dir = Filename.temp_file "eda4sat_net_test" ""

let () =
  Sys.remove temp_dir;
  Unix.mkdir temp_dir 0o755

let file name = Filename.concat temp_dir name

let write_cnf name f =
  Cnf.Dimacs.write_file f (file name);
  file name

let tiny_sat =
  Cnf.Formula.create ~num_vars:3 [ [| 1; 2 |]; [| -1; 3 |]; [| -2; 3 |] ]

let tiny_unsat =
  Cnf.Formula.create ~num_vars:2 [ [| 1 |]; [| -1; 2 |]; [| -2 |] ]

let php n = Workloads.Satcomp.pigeonhole ~pigeons:n ~holes:(n - 1)

(* Engine + loop on a loopback port, run on its own domain; [f] drives
   clients from the test domain.  The finally block proves drain: the
   loop domain must join. *)
let with_loop ?(net_config = Net.Event_loop.default_config) f =
  let engine =
    Server.create
      ~config:{ Server.default_config with workers = 2; queue_capacity = 64 }
      ()
  in
  let loop = Net.Event_loop.create ~config:net_config engine in
  let _, port = Net.Event_loop.add_tcp loop ~host:"127.0.0.1" ~port:0 in
  let runner = Domain.spawn (fun () -> Net.Event_loop.run loop) in
  Fun.protect
    ~finally:(fun () ->
      Net.Event_loop.request_drain loop;
      Domain.join runner;
      Server.shutdown engine)
    (fun () -> f engine loop port)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A stuck server must fail the test, not hang it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  (fd, ref "")

let send (fd, _) s = ignore (Unix.write_substring fd s 0 (String.length s))

let next_line (fd, pend) =
  let rec go () =
    match String.index_opt !pend '\n' with
    | Some i ->
      let l = String.sub !pend 0 i in
      pend := String.sub !pend (i + 1) (String.length !pend - i - 1);
      Some l
    | None -> (
      let b = Bytes.create 4096 in
      match Unix.read fd b 0 4096 with
      | 0 -> None
      | n ->
        pend := !pend ^ Bytes.sub_string b 0 n;
        go ())
  in
  go ()

let read_to_eof client =
  let rec go acc =
    match next_line client with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

let close_client (fd, _) = try Unix.close fd with _ -> ()

let expect_line what client pred =
  match next_line client with
  | Some l when pred l -> l
  | Some l -> Alcotest.failf "%s: unexpected line %S" what l
  | None -> Alcotest.failf "%s: unexpected EOF" what

let starts_with p l =
  String.length l >= String.length p && String.sub l 0 (String.length p) = p

let test_loop_concurrent_clients () =
  let sat = write_cnf "net_sat.cnf" tiny_sat in
  let unsat = write_cnf "net_unsat.cnf" tiny_unsat in
  with_loop (fun engine _loop port ->
      let n = 8 in
      let clients = List.init n (fun _ -> connect port) in
      (* All 8 submit before anyone reads: the loop interleaves them. *)
      List.iteri
        (fun i c ->
          send c
            (Printf.sprintf "PING\nCLIENT c%d\nSOLVE %s\nSOLVE %s\nQUIT\n" i
               sat unsat))
        clients;
      List.iteri
        (fun i c ->
          match read_to_eof c with
          | [ pong; hello; h1; "SAT"; v; h2; "UNSAT" ] ->
            check_string "pong first (out of band)" "PONG" pong;
            check_string "hello ack" (Printf.sprintf "HELLO c%d" i) hello;
            check_bool "job 1 header" true (starts_with "c job 1 file=" h1);
            check_bool "job 2 header" true (starts_with "c job 2 file=" h2);
            check_bool "model line" true (starts_with "v " v)
          | ls ->
            Alcotest.failf "client %d: unexpected stream (%d lines):\n%s" i
              (List.length ls) (String.concat "\n" ls))
        clients;
      List.iter close_client clients;
      (* Per-client counters reconcile: everyone got both answers. *)
      let stats = Server.stats engine in
      List.iteri
        (fun i _ ->
          let count leg =
            match Server.Metrics.client stats (Printf.sprintf "c%d" i) leg with
            | Some n -> n
            | None -> Alcotest.failf "client c%d missing from metrics" i
          in
          check_int "client requests" 2 (count `Requests);
          check_int "client answered" 2 (count `Answered);
          check_int "client rejected" 0 (count `Rejected))
        clients;
      let json = Server.stats_json engine in
      let has_sub sub l =
        let m = String.length sub in
        let rec go i =
          i + m <= String.length l && (String.sub l i m = sub || go (i + 1))
        in
        go 0
      in
      check_bool "clients serialized in stats JSON" true
        (has_sub "\"c3\": {\"requests\": 2, \"answered\": 2, \"rejected\": 0}"
           json))

let test_loop_quota_and_oob () =
  let hard = write_cnf "net_php9.cnf" (php 11) in
  let sat = write_cnf "net_quota_sat.cnf" tiny_sat in
  let net_config =
    {
      Net.Event_loop.default_config with
      tenant_limits = [ ("bob", { Net.Tenant.quota = 1; priority_floor = 0 }) ];
    }
  in
  with_loop ~net_config (fun _engine _loop port ->
      let c = connect port in
      (* One slow in-flight solve fills bob's quota; the next two are
         rejected at admission.  METRICS and PING answer out of band,
         ahead of the still-pending job answer. *)
      send c
        (Printf.sprintf "CLIENT bob\nSOLVE %s 400\nSOLVE %s 400\nSOLVE %s \
                         400\nPING\nMETRICS\nQUIT\n"
           hard hard hard);
      let lines = read_to_eof c in
      close_client c;
      (* PONG and the METRICS snapshot are out of band: they must beat
         the still-pending job 1 answer instead of queueing behind
         400 ms of solving. *)
      let index_of what pred =
        let rec go i = function
          | [] -> Alcotest.failf "%s missing in:\n%s" what
                    (String.concat "\n" lines)
          | l :: rest -> if pred l then i else go (i + 1) rest
        in
        go 0 lines
      in
      check_bool "PONG beats the pending answer" true
        (index_of "PONG" (fun l -> l = "PONG")
         < index_of "TIMEOUT" (fun l -> l = "TIMEOUT"));
      check_bool "METRICS beats the pending answer" true
        (index_of "metrics json" (starts_with "{\"submitted\"")
         < index_of "TIMEOUT" (fun l -> l = "TIMEOUT"));
      (* The FIFO stream itself is strictly ordered: quota rejections
         for jobs 2 and 3 wait behind job 1's answer. *)
      let fifo =
        List.filter
          (fun l ->
            l <> "PONG" && not (starts_with "{\"submitted\"" l))
          lines
      in
      (match fifo with
       | [ hello; h1; "TIMEOUT"; h2; "REJECTED quota"; h3;
           "REJECTED quota" ] ->
         check_string "hello ack" "HELLO bob" hello;
         check_bool "job 1 header" true (starts_with "c job 1" h1);
         check_bool "job 2 header" true (starts_with "c job 2" h2);
         check_bool "job 3 header" true (starts_with "c job 3" h3)
       | ls ->
         Alcotest.failf "unexpected fifo stream (%d lines):\n%s"
           (List.length ls) (String.concat "\n" ls));
      (* The timeout released bob's slot: a fresh connection solves. *)
      let c2 = connect port in
      send c2 (Printf.sprintf "CLIENT bob\nSOLVE %s\nQUIT\n" sat);
      let lines = read_to_eof c2 in
      close_client c2;
      check_bool "slot released after answer" true
        (List.exists (fun l -> l = "SAT") lines))

let test_loop_session_ownership () =
  with_loop (fun _engine _loop port ->
      let a = connect port and b = connect port in
      send a "CLIENT alice\nOPEN\n";
      ignore (expect_line "alice hello" a (fun l -> l = "HELLO alice"));
      ignore (expect_line "open header" a (fun l -> starts_with "c job 1" l));
      let opened =
        expect_line "alice opens" a (fun l -> starts_with "OPENED " l)
      in
      let sid = String.sub opened 7 (String.length opened - 7) in
      send b (Printf.sprintf "CLIENT mallory\nCLOSE %s\nQUIT\n" sid);
      ignore (expect_line "mallory hello" b (fun l -> l = "HELLO mallory"));
      ignore
        (expect_line "close header" b (fun l -> starts_with "c session " l));
      ignore
        (expect_line "foreign close refused" b (fun l ->
             l = "REJECTED not-owner"));
      check_bool "mallory stream ends" true (next_line b = None);
      close_client b;
      (* A second connection of the same tenant may drive the session. *)
      let a2 = connect port in
      send a2 (Printf.sprintf "CLIENT alice\nCLOSE %s\nQUIT\n" sid);
      ignore (expect_line "alice2 hello" a2 (fun l -> l = "HELLO alice"));
      ignore
        (expect_line "close header" a2 (fun l -> starts_with "c session " l));
      ignore (expect_line "owner may close" a2 (fun l -> l = "OK"));
      close_client a2;
      send a "QUIT\n";
      ignore (read_to_eof a);
      close_client a)

let test_loop_drain_keeps_inflight () =
  let hard = write_cnf "net_drain_php9.cnf" (php 11) in
  with_loop (fun _engine loop port ->
      let c = connect port in
      send c (Printf.sprintf "SOLVE %s 300\n" hard);
      (* No QUIT: the connection would stay open — drain must both
         deliver the in-flight answer and close it. *)
      Unix.sleepf 0.05;
      Net.Event_loop.request_drain loop;
      let lines = read_to_eof c in
      close_client c;
      check_bool "header delivered" true
        (List.exists (starts_with "c job 1") lines);
      check_bool "in-flight answer not lost by drain" true
        (List.exists (fun l -> l = "TIMEOUT") lines))

let test_loop_unix_socket_and_eof () =
  let sat = write_cnf "net_unix_sat.cnf" tiny_sat in
  let engine =
    Server.create
      ~config:{ Server.default_config with workers = 2; queue_capacity = 16 }
      ()
  in
  let loop = Net.Event_loop.create engine in
  let path = file "net_test.sock" in
  Net.Event_loop.add_unix loop path;
  let runner = Domain.spawn (fun () -> Net.Event_loop.run loop) in
  Fun.protect
    ~finally:(fun () ->
      Net.Event_loop.request_drain loop;
      Domain.join runner;
      Server.shutdown engine)
    (fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      let c = (fd, ref "") in
      (* Final command has no trailing newline: the half-close must
         still dispatch it, like the channel transport's EOF rule. *)
      send c (Printf.sprintf "SOLVE %s" sat);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let lines = read_to_eof c in
      close_client c;
      check_bool "answer delivered over unix socket" true
        (List.exists (fun l -> l = "SAT") lines));
  check_bool "socket path unlinked after drain" false (Sys.file_exists path)

(* --- fd budget / max-clients ----------------------------------------- *)

(* Unix.select cannot watch fds numbered >= FD_SETSIZE (1024): a
   --max-clients large enough to accept fd 1024 used to crash the loop
   on the next select.  The bound must be clamped to the fd budget at
   create time. *)
let test_fd_budget_clamp () =
  let engine =
    Server.create ~config:{ Server.default_config with workers = 1 } ()
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown engine)
    (fun () ->
      let big =
        Net.Event_loop.create
          ~config:{ Net.Event_loop.default_config with max_clients = 100_000 }
          engine
      in
      let eff = Net.Event_loop.effective_max_clients big in
      check_bool "clamped below FD_SETSIZE" true (eff < 1024);
      check_bool "budget leaves fd head room" true (eff <= 1024 - 32);
      check_bool "budget is not degenerate" true (eff >= 512);
      let small =
        Net.Event_loop.create
          ~config:{ Net.Event_loop.default_config with max_clients = 2 }
          engine
      in
      check_int "small bound passes through" 2
        (Net.Event_loop.effective_max_clients small))

let test_loop_max_clients_refused () =
  let net_config = { Net.Event_loop.default_config with max_clients = 2 } in
  with_loop ~net_config (fun _engine loop port ->
      check_int "configured bound enforced as-is" 2
        (Net.Event_loop.effective_max_clients loop);
      (* Fill both slots; a PING round-trip proves each connection is
         registered (accept is asynchronous to connect). *)
      let c1 = connect port in
      send c1 "PING\n";
      ignore (expect_line "c1 accepted" c1 (fun l -> l = "PONG"));
      let c2 = connect port in
      send c2 "PING\n";
      ignore (expect_line "c2 accepted" c2 (fun l -> l = "PONG"));
      (* The third connection is refused with an answer, not left
         hanging in the backlog and not crashing the loop. *)
      let c3 = connect port in
      ignore
        (expect_line "third connection refused" c3 (fun l ->
             l = "REJECTED overloaded"));
      check_bool "refused connection closed" true (next_line c3 = None);
      close_client c3;
      (* Closing one held slot frees it for a newcomer. *)
      send c1 "QUIT\n";
      ignore (read_to_eof c1);
      close_client c1;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait_for_slot () =
        if Net.Event_loop.connections loop < 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "slot never freed"
        else (Unix.sleepf 0.01; wait_for_slot ())
      in
      wait_for_slot ();
      let c4 = connect port in
      send c4 "PING\nQUIT\n";
      ignore (expect_line "freed slot reusable" c4 (fun l -> l = "PONG"));
      ignore (read_to_eof c4);
      close_client c4;
      send c2 "QUIT\n";
      ignore (read_to_eof c2);
      close_client c2)

let suite =
  [
    ("framing chunks and crlf", `Quick, test_framing_chunks);
    ("framing partial-line bound", `Quick, test_framing_bound);
    ("tenant quotas and floors", `Quick, test_tenant_quota);
    ("tenant spec parsing", `Quick, test_tenant_spec);
    ("conn backpressure watermarks", `Quick, test_conn_watermarks);
    ("loop: 8 concurrent clients ordered", `Quick, test_loop_concurrent_clients);
    ("loop: quota rejects, oob probes", `Quick, test_loop_quota_and_oob);
    ("loop: session ownership", `Quick, test_loop_session_ownership);
    ("loop: drain keeps in-flight answers", `Quick,
     test_loop_drain_keeps_inflight);
    ("loop: unix socket and eof dispatch", `Quick,
     test_loop_unix_socket_and_eof);
    ("fd budget clamps max-clients", `Quick, test_fd_budget_clamp);
    ("loop: surplus connections refused and slots recycled", `Quick,
     test_loop_max_clients_refused);
  ]
