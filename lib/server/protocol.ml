(* The [SOLVE] operand loader: AIGER goes through the circuit pipeline
   (it needs Tseitin encoding anyway) and is flattened once; DIMACS
   takes the zero-copy path — mmap the bytes and parse straight into
   the flat CSR store the engine loads into the solver arena. *)
let load path =
  if Filename.check_suffix path ".aag" then
    Cnf.Flat.of_formula
      (Eda4sat.Instance.direct_formula
         (Eda4sat.Instance.of_circuit ~name:(Filename.basename path)
            (Aig.Aiger_io.read_file path)))
  else Cnf.Dimacs.read_flat_file path

(* The reason half of an [ERROR cannot load] line: the parser's own
   message, not the OCaml exception syntax. *)
let load_error = function
  | Cnf.Dimacs.Parse_error m | Aig.Aiger_io.Parse_error m | Sys_error m -> m
  | e -> Printexc.to_string e

let submit_file engine ?deadline ?priority file =
  let t0 = Sat.Wall.now () in
  match load file with
  | exception e ->
    Error (Printf.sprintf "ERROR cannot load %s: %s" file (load_error e))
  | cnf -> (
    Metrics.record_parse (Engine.metrics engine)
      ~latency_s:(Sat.Wall.now () -. t0);
    match Engine.submit engine ?deadline ?priority cnf with
    | Ok ticket -> Ok (ticket, cnf.Cnf.Flat.num_vars)
    | Error reason -> Error ("REJECTED " ^ reason))

(* The wire takes milliseconds; engine deadlines are seconds from now.
   This is the only ms→s conversion in the stack — the engine then
   validates the value and composes the absolute instant, so a NaN or
   negative wire deadline answers [REJECTED bad-deadline] instead of
   poisoning the instant arithmetic. *)
let deadline_of_ms_string d = float_of_string d /. 1000.0

(* --- request parsing --------------------------------------------------

   One grammar for every transport: the front-end (lib/net) parses
   pipe, TCP and Unix-socket lines with [parse_request], so a command
   means the same thing on each. *)

let is_int_string s =
  s <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') s

(* 0-terminated clause groups, DIMACS style: "1 2 0 -1 3 0". *)
let parse_clauses words =
  let cur = ref [] and out = ref [] in
  List.iter
    (fun w ->
      let l = int_of_string w in
      if l = 0 then begin
        out := Array.of_list (List.rev !cur) :: !out;
        cur := []
      end
      else cur := l :: !cur)
    words;
  if !cur <> [] then failwith "clause not 0-terminated";
  if !out = [] then failwith "no clauses";
  List.rev !out

(* Assumption literals; one trailing 0 tolerated, embedded 0 is not. *)
let parse_lits words =
  let lits = List.map int_of_string words in
  let lits =
    match List.rev lits with 0 :: rest -> List.rev rest | _ -> lits
  in
  if List.exists (fun l -> l = 0) lits then failwith "literal 0";
  Array.of_list lits

type request =
  | Solve_file of {
      file : string;
      deadline : float option;  (* seconds from now, may be non-finite *)
      priority : int option;
    }
  | Session_solve of { sid : int; deadline : float option }
  | Session_op of { sid : int; verb : string; op : Session.op }
  | Open_session
  | Client of string  (* declare this connection's client (tenant) id *)
  | Stats
  | Metrics_now
  | Sync
  | Ping
  | Quit
  | Comment
  | Bad of string  (* the ERROR line to answer *)

(* Client ids end up as JSON keys in METRICS/STATS output and in log
   lines; keep them to a tame identifier alphabet. *)
let valid_client_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun ch ->
         match ch with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' ->
           true
         | _ -> false)
       name

let parse_request line =
  let guarded name f =
    try f ()
    with e ->
      Bad
        (Printf.sprintf "ERROR bad %s request: %s" name
           (Printexc.to_string e))
  in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> Comment
  | cmd :: args -> (
    match (String.uppercase_ascii cmd, args) with
    | "QUIT", _ -> Quit
    (* Lines starting with a lowercase 'c' comment marker parse as the
       command "C"; '#' likewise — both are accepted silently so
       scripted sessions can annotate themselves. *)
    | ("C" | "#"), _ -> Comment
    | "PING", _ -> Ping
    | "METRICS", _ -> Metrics_now
    | "STATS", _ -> Stats
    | "SYNC", _ -> Sync
    | "OPEN", _ -> Open_session
    | "CLIENT", [ name ] when valid_client_name name -> Client name
    | "CLIENT", _ ->
      Bad
        "ERROR CLIENT needs one identifier operand \
         ([A-Za-z0-9._:-], at most 64 chars)"
    (* A first SOLVE operand that is all digits addresses a session; a
       file named like a bare integer needs a path prefix ("./42"). *)
    | "SOLVE", sid :: rest when is_int_string sid ->
      guarded "SOLVE" (fun () ->
          let deadline =
            match rest with
            | [] -> None
            | [ d ] -> Some (deadline_of_ms_string d)
            | _ -> failwith "session SOLVE takes at most one deadline operand"
          in
          Session_solve { sid = int_of_string sid; deadline })
    | "SOLVE", file :: rest ->
      guarded "SOLVE" (fun () ->
          let deadline, priority =
            match rest with
            | [] -> (None, None)
            | [ d ] -> (Some (deadline_of_ms_string d), None)
            | [ d; p ] ->
              (Some (deadline_of_ms_string d), Some (int_of_string p))
            | _ -> failwith "SOLVE takes at most 3 operands"
          in
          Solve_file { file; deadline; priority })
    | "SOLVE", [] -> Bad "ERROR SOLVE needs a file operand"
    | "ADD", sid :: lits when is_int_string sid ->
      guarded "ADD" (fun () ->
          Session_op
            { sid = int_of_string sid; verb = "add";
              op = Session.Add (parse_clauses lits) })
    | "ASSUME", sid :: lits when is_int_string sid ->
      guarded "ASSUME" (fun () ->
          Session_op
            { sid = int_of_string sid; verb = "assume";
              op = Session.Assume (parse_lits lits) })
    | "PUSH", [ sid ] when is_int_string sid ->
      Session_op { sid = int_of_string sid; verb = "push"; op = Session.Push }
    | "POP", [ sid ] when is_int_string sid ->
      Session_op { sid = int_of_string sid; verb = "pop"; op = Session.Pop }
    | "CLOSE", [ sid ] when is_int_string sid ->
      Session_op
        { sid = int_of_string sid; verb = "close"; op = Session.Close }
    | ("ADD" | "ASSUME" | "PUSH" | "POP" | "CLOSE"), _ ->
      Bad ("ERROR " ^ cmd ^ " needs a session id operand")
    | _ -> Bad ("ERROR unknown command: " ^ cmd))

(* --- answer rendering -------------------------------------------------

   Shared by both transports so a scripted client sees byte-identical
   answers whether it spoke over stdin or a socket. *)

(* Exactly [num_vars] literals, whatever the model array's length:
   reconstruction paths may answer with auxiliary variables appended
   (clamp), and a model shorter than the declared variable count pads
   with the negative phase — a "v" line is only well-formed when it
   assigns the declared variables, all of them, and nothing else. *)
let model_line ~num_vars m =
  let buf = Buffer.create (4 * num_vars) in
  Buffer.add_char buf 'v';
  for i = 0 to num_vars - 1 do
    let b = i < Array.length m && m.(i) in
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (if b then i + 1 else -(i + 1)))
  done;
  Buffer.add_string buf " 0";
  Buffer.contents buf

let source_name = function
  | Engine.Solved -> "solved"
  | Engine.Cache_hit -> "cache"
  | Engine.Dedup_join -> "join"

let job_header ~seq ~file = Printf.sprintf "c job %d file=%s" seq file
let open_header ~seq = Printf.sprintf "c job %d op=open" seq

let session_header ~sid ~seq ~verb =
  Printf.sprintf "c session %d job %d op=%s" sid seq verb

let answer_lines ~seq ~file ~num_vars (a : Engine.answer) =
  let header =
    Printf.sprintf
      "c job %d file=%s source=%s wall_ms=%.1f solve_ms=%.1f fingerprint=%s"
      seq file (source_name a.Engine.source)
      (1000.0 *. a.Engine.wall)
      (1000.0 *. a.Engine.solve_wall)
      (Cnf.Fingerprint.to_hex a.Engine.fingerprint)
  in
  header
  ::
  (match a.Engine.verdict with
   | Engine.Sat m -> [ "SAT"; model_line ~num_vars m ]
   | Engine.Unsat -> [ "UNSAT" ]
   | Engine.Timeout -> [ "TIMEOUT" ]
   | Engine.Failed msg -> [ "FAILED " ^ msg ])

let session_answer_lines ~seq ~sid ~verb (a : Session.answer) =
  let header =
    Printf.sprintf "c session %d job %d op=%s wall_ms=%.1f solve_ms=%.1f"
      sid seq verb
      (1000.0 *. a.Session.wall)
      (1000.0 *. a.Session.solve_wall)
  in
  header
  ::
  (match a.Session.outcome with
   | Session.Ok_done -> [ "OK" ]
   | Session.Sat m -> [ "SAT"; model_line ~num_vars:(Array.length m) m ]
   | Session.Unsat core ->
     let buf = Buffer.create 32 in
     Buffer.add_string buf "c core";
     Array.iter
       (fun l ->
         Buffer.add_char buf ' ';
         Buffer.add_string buf (string_of_int l))
       core;
     Buffer.add_string buf " 0";
     [ "UNSAT"; Buffer.contents buf ]
   | Session.Timeout -> [ "TIMEOUT" ]
   | Session.Evicted -> [ "EVICTED" ]
   | Session.Failed msg -> [ "FAILED " ^ msg ])
