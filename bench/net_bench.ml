(* Socket front-end throughput: the [net] suite.

     dune exec bench/bench.exe -- net
     dune exec bench/bench.exe -- net --workers 4 --clients 8 --jobs 240
     dune exec bench/bench.exe -- net --check BENCH_net.json

   Three measurements against the same engine configuration:

   - connection setup rate: sequential connect + PING/PONG + close
     round-trips against a live event loop, in connections/sec.
   - stdin baseline: every job pushed through one pipe connection
     ({!Net.Event_loop.add_pipe} over a pipe pair — the transport
     `serve` without --listen runs on stdin/stdout), fully pipelined.
   - N-client aggregate: the same job count split over N concurrent
     TCP connections into one {!Net.Event_loop}, each client a domain
     that writes its SOLVE batch and reads its ordered answers.

   Every job is a distinct random 3-SAT instance near the phase
   transition (distinct fingerprints — the result cache and in-flight
   dedup cannot shortcut either pass), and each pass gets a fresh
   engine so neither warms the other's cache.  Both transports
   saturate the same worker pool, so the multi-client figure shows the
   event loop's per-connection framing/dispatch costs the pipeline
   nothing versus the single pipe stream.

   The gate fails if the multi-client/stdin ratio fell below the 0.85
   floor or more than 15% below the committed number. *)

(* One CNF file per (pass, job): ~1 ms instances, distinct seeds. *)
let job_file dir pass j =
  let path = Filename.concat dir (Printf.sprintf "%s_%d.cnf" pass j) in
  let f =
    Workloads.Satcomp.random_ksat
      ~seed:((Hashtbl.hash pass * 7919) + j)
      ~num_vars:60 ~num_clauses:250 ~k:3
  in
  Cnf.Dimacs.write_file f path;
  path

let engine_config ~workers ~jobs =
  {
    Server.default_config with
    Server.workers;
    queue_capacity = max 64 (2 * jobs);
    cache_capacity = 2 * jobs;
  }

(* --- client-side plumbing -------------------------------------------- *)

let send fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let read_to_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

let count_answers s =
  let lines = String.split_on_char '\n' s in
  List.length
    (List.filter
       (fun l -> l = "SAT" || l = "UNSAT" || l = "TIMEOUT")
       lines)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_loop config f =
  let engine = Server.create ~config () in
  let loop = Net.Event_loop.create engine in
  let _, port = Net.Event_loop.add_tcp loop ~host:"127.0.0.1" ~port:0 in
  let runner = Domain.spawn (fun () -> Net.Event_loop.run loop) in
  Fun.protect
    ~finally:(fun () ->
      Net.Event_loop.request_drain loop;
      Domain.join runner;
      Server.shutdown engine)
    (fun () -> f port)

(* --- passes ---------------------------------------------------------- *)

(* Sequential connect / PING / PONG / close round-trips. *)
let run_setup_rate config ~conns =
  with_loop config @@ fun port ->
  let t0 = Sat.Wall.now () in
  for _ = 1 to conns do
    let fd = connect port in
    send fd "PING\n";
    let b = Bytes.create 16 in
    ignore (Unix.read fd b 0 16);
    Unix.close fd
  done;
  float_of_int conns /. (Sat.Wall.now () -. t0)

(* All jobs through one pipe connection of an event loop: the stdin
   transport verbatim, minus the terminal.  The loop does not own the
   pipe ends, so the answer pipe is closed once it returns. *)
let run_stdin_baseline config files =
  let engine = Server.create ~config () in
  let r_cmd, w_cmd = Unix.pipe () in
  let r_ans, w_ans = Unix.pipe () in
  let loop = Net.Event_loop.create engine in
  Net.Event_loop.add_pipe loop ~fd_in:r_cmd ~fd_out:w_ans;
  let server =
    Domain.spawn (fun () ->
        Net.Event_loop.run loop;
        Unix.close w_ans)
  in
  let t0 = Sat.Wall.now () in
  let writer =
    Domain.spawn (fun () ->
        List.iter (fun f -> send w_cmd ("SOLVE " ^ f ^ "\n")) files;
        send w_cmd "QUIT\n";
        Unix.close w_cmd)
  in
  let out = read_to_eof r_ans in
  Domain.join writer;
  Domain.join server;
  Unix.close r_ans;
  Unix.close r_cmd;
  Server.shutdown engine;
  let wall = Sat.Wall.now () -. t0 in
  let got = count_answers out in
  if got <> List.length files then
    failwith
      (Printf.sprintf "stdin baseline: %d answers for %d jobs" got
         (List.length files));
  float_of_int (List.length files) /. wall

(* The same job count over [n] concurrent TCP connections; each client
   writes its whole batch, then drains its ordered answers. *)
let run_multi_client config n files =
  with_loop config @@ fun port ->
  let batches = Array.make n [] in
  List.iteri (fun i f -> batches.(i mod n) <- f :: batches.(i mod n)) files;
  let t0 = Sat.Wall.now () in
  let doms =
    Array.to_list
      (Array.mapi
         (fun i batch ->
           Domain.spawn (fun () ->
               let fd = connect port in
               send fd (Printf.sprintf "CLIENT bench%d\n" i);
               List.iter (fun f -> send fd ("SOLVE " ^ f ^ "\n")) batch;
               send fd "QUIT\n";
               let out = read_to_eof fd in
               Unix.close fd;
               count_answers out))
         batches)
  in
  let got = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
  let wall = Sat.Wall.now () -. t0 in
  if got <> List.length files then
    failwith
      (Printf.sprintf "multi-client: %d answers for %d jobs" got
         (List.length files));
  float_of_int (List.length files) /. wall

let run () =
  let workers = Harness.arg "--workers" int_of_string 4 in
  let clients = Harness.arg "--clients" int_of_string 8 in
  let jobs = Harness.arg "--jobs" int_of_string 240 in
  let conns = Harness.arg "--conns" int_of_string 100 in
  let config = engine_config ~workers ~jobs in
  Printf.printf
    "net bench: %d jobs, %d workers, %d clients, %d setup conns\n%!" jobs
    workers clients conns;
  let setup_rate = run_setup_rate config ~conns in
  Printf.printf "connection setup: %.0f conns/sec\n%!" setup_rate;
  Harness.with_temp_dir "net_bench" @@ fun dir ->
  let stdin_rate =
    run_stdin_baseline config (List.init jobs (job_file dir "stdin"))
  in
  Printf.printf "stdin baseline:   %.0f jobs/sec (1 pipe stream)\n%!"
    stdin_rate;
  let multi_rate =
    run_multi_client config clients (List.init jobs (job_file dir "multi"))
  in
  Printf.printf "multi-client:     %.0f jobs/sec (%d connections)\n%!"
    multi_rate clients;
  let ratio = multi_rate /. stdin_rate in
  Printf.printf "multi/stdin ratio: %.2f\n%!" ratio;
  let open Harness in
  Some
    ( Obj
        [
          ("workers", int workers);
          ("clients", int clients);
          ("jobs", int jobs);
          ("setup_conns_per_sec", fixed 0 setup_rate);
          ("stdin_jobs_per_sec", fixed 0 stdin_rate);
          ("multi_client_jobs_per_sec", fixed 0 multi_rate);
          ("multi_vs_stdin", fixed 2 ratio);
        ],
      fun committed ->
        (* Both transports saturate the same worker pool, so the honest
           expectation is parity; the floor catches the event loop
           turning into a bottleneck, with slack for shared-runner
           noise. *)
        [
          at_least "multi/stdin vs 0.85 floor" ratio 0.85;
          at_least "multi/stdin vs 0.85x committed" ratio
            (0.85 *. committed [ "multi_vs_stdin" ]);
        ] )

let suite =
  {
    Harness.name = "net";
    doc = "socket clients vs the stdin pipe, connection setup rate";
    keys = [ [ "multi_vs_stdin" ] ];
    run;
  }
