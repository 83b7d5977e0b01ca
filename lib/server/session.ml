type op =
  | Add of int array list
  | Assume of int array
  | Push
  | Pop
  | Solve of { deadline : float option }
  | Close

type outcome =
  | Ok_done
  | Sat of bool array
  | Unsat of int array
  | Timeout
  | Evicted
  | Failed of string

type answer = {
  outcome : outcome;
  wall : float;
  solve_wall : float;
  stats : Sat.Solver.stats;
}

type ticket = {
  op : op;
  tm : Mutex.t;
  tc : Condition.t;
  mutable result : answer option;
  submitted_at : float;
  mutable callbacks : (answer -> unit) list;
      (* async-completion hooks (under tm); run once, after [resolve]
         releases the ticket mutex, on the resolving domain *)
}

(* A pushed frame: its activation variable (internal solver numbering,
   never client-visible) and the client clauses it guards, kept for
   model verification until the frame pops. *)
type frame = {
  act : int;
  mutable frame_clauses : int array list;
}

type state = Live | Closed_ | Evicted_

type t = {
  sid : int;
  m : Mutex.t;  (* guards everything below except the solver state *)
  max_pending : int;
  pending : ticket Queue.t;
  mutable scheduled : bool;   (* a token for this session is in flight *)
  mutable checked_out : bool; (* a worker is executing an op right now *)
  mutable state : state;
  mutable last : float;
  mutable running : (float option * Sat.Solver.Interrupt.t) option;
  mutable timed_out : bool;
  (* Solver state: touched only by the single executing worker (the
     token discipline is the lock), never under [m]. *)
  inc : Sat.Solver.Incremental.session;
  int_of_user : (int, int) Hashtbl.t;  (* client var -> solver var *)
  user_of_int : (int, int) Hashtbl.t;
  mutable num_user_vars : int;
  mutable frames : frame list;         (* innermost first *)
  mutable base_clauses : int array list;
  mutable assumptions : int array;     (* client literals, next solve *)
}

let create ?(max_pending = 1024) ~id () =
  {
    sid = id;
    m = Mutex.create ();
    max_pending;
    pending = Queue.create ();
    scheduled = false;
    checked_out = false;
    state = Live;
    last = Sat.Wall.now ();
    running = None;
    timed_out = false;
    inc = Sat.Solver.Incremental.create ();
    int_of_user = Hashtbl.create 64;
    user_of_int = Hashtbl.create 64;
    num_user_vars = 0;
    frames = [];
    base_clauses = [];
    assumptions = [||];
  }

let id t = t.sid

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let resolve ticket outcome ~solve_wall ~stats =
  Mutex.lock ticket.tm;
  let run, answer =
    if ticket.result = None then begin
      let a =
        {
          outcome;
          wall = Sat.Wall.now () -. ticket.submitted_at;
          solve_wall;
          stats;
        }
      in
      ticket.result <- Some a;
      Condition.broadcast ticket.tc;
      let ks = ticket.callbacks in
      ticket.callbacks <- [];
      (ks, Some a)
    end
    else ([], None)
  in
  Mutex.unlock ticket.tm;
  (* Outside the ticket mutex so a callback may await/poll freely; a
     raising callback must not starve the rest. *)
  match answer with
  | Some a -> List.iter (fun k -> try k a with _ -> ()) run
  | None -> ()

let resolve_plain ticket outcome =
  resolve ticket outcome ~solve_wall:0.0 ~stats:Sat.Solver.empty_stats

let fresh_ticket op =
  {
    op;
    tm = Mutex.create ();
    tc = Condition.create ();
    result = None;
    submitted_at = Sat.Wall.now ();
    callbacks = [];
  }

let resolved_ticket op outcome =
  let ticket = fresh_ticket op in
  resolve_plain ticket outcome;
  ticket

let await ticket =
  Mutex.lock ticket.tm;
  while ticket.result = None do
    Condition.wait ticket.tc ticket.tm
  done;
  let a = Option.get ticket.result in
  Mutex.unlock ticket.tm;
  a

let poll ticket =
  Mutex.lock ticket.tm;
  let r = ticket.result in
  Mutex.unlock ticket.tm;
  r

let on_answer ticket k =
  Mutex.lock ticket.tm;
  match ticket.result with
  | Some a ->
    Mutex.unlock ticket.tm;
    k a
  | None ->
    ticket.callbacks <- k :: ticket.callbacks;
    Mutex.unlock ticket.tm

let enqueue t op =
  let ticket = fresh_ticket op in
  locked t (fun () ->
      match t.state with
      | Evicted_ ->
        resolve_plain ticket Evicted;
        `Queued ticket
      | Closed_ ->
        resolve_plain ticket (Failed "session closed");
        `Queued ticket
      | Live ->
        if Queue.length t.pending >= t.max_pending then `Full
        else begin
          Queue.push ticket t.pending;
          t.last <- Sat.Wall.now ();
          if t.scheduled then `Queued ticket
          else begin
            t.scheduled <- true;
            `Scheduled ticket
          end
        end)

(* --- client-variable renaming ---------------------------------------- *)

let intern t v =
  match Hashtbl.find_opt t.int_of_user v with
  | Some iv -> iv
  | None ->
    let iv = Sat.Solver.Incremental.new_var t.inc in
    Hashtbl.replace t.int_of_user v iv;
    Hashtbl.replace t.user_of_int iv v;
    if v > t.num_user_vars then t.num_user_vars <- v;
    iv

let intern_lit t l =
  let iv = intern t (abs l) in
  if l < 0 then -iv else iv

let user_model t m =
  Array.init t.num_user_vars (fun i ->
      match Hashtbl.find_opt t.int_of_user (i + 1) with
      | Some iv when iv <= Array.length m -> m.(iv - 1)
      | _ -> false)

(* The internal core contains the assumptions as passed: client
   assumptions (mapped) and activation literals.  Only the former are
   client-visible. *)
let user_core t core =
  Array.to_list core
  |> List.filter_map (fun l ->
         match Hashtbl.find_opt t.user_of_int (abs l) with
         | Some v -> Some (if l < 0 then -v else v)
         | None -> None)
  |> Array.of_list

let eval_clause model c =
  Array.exists
    (fun l ->
      let v = abs l in
      let value = v <= Array.length model && model.(v - 1) in
      if l < 0 then not value else value)
    c

let verify_model t model =
  List.for_all (eval_clause model) t.base_clauses
  && List.for_all
       (fun f -> List.for_all (eval_clause model) f.frame_clauses)
       t.frames

(* --- op execution ----------------------------------------------------- *)

let add_user_clause t clause =
  if Array.exists (fun l -> l = 0) clause then
    Error "clause contains literal 0"
  else begin
    let internal = Array.map (intern_lit t) clause in
    (match t.frames with
     | [] ->
       t.base_clauses <- clause :: t.base_clauses;
       Sat.Solver.Incremental.add_clause t.inc internal
     | f :: _ ->
       (* Guard with the frame's activation literal so POP can retire
          the clause with one unit. *)
       f.frame_clauses <- clause :: f.frame_clauses;
       let guarded = Array.append internal [| -f.act |] in
       Sat.Solver.Incremental.add_clause t.inc guarded);
    Ok ()
  end

let deadline_passed deadline now =
  match deadline with Some d -> now >= d | None -> false

let exec_solve t ~limits ~stopping ~deadline =
  if deadline_passed deadline (Sat.Wall.now ()) then
    (Timeout, 0.0, Sat.Solver.empty_stats)
  else begin
    let interrupt = Sat.Solver.Interrupt.create () in
    locked t (fun () ->
        t.running <- Some (deadline, interrupt);
        t.timed_out <- false);
    let assumptions =
      Array.append
        (Array.map (intern_lit t) t.assumptions)
        (Array.of_list (List.rev_map (fun f -> f.act) t.frames))
    in
    let limits = { limits with Sat.Solver.deadline } in
    let t0 = Sat.Wall.now () in
    (* A raising solve propagates to [run_one], which resolves the
       ticket [Failed] and clears the running marker. *)
    let result, stats =
      Sat.Solver.Incremental.solve ~limits ~interrupt ~assumptions t.inc
    in
    let solve_wall = Sat.Wall.now () -. t0 in
    let timed_out = locked t (fun () -> t.running <- None; t.timed_out) in
    t.assumptions <- [||];
    let outcome =
      match result with
      | Sat.Solver.Sat m ->
        let um = user_model t m in
        if verify_model t um then Sat um
        else Failed "model verification failed"
      | Sat.Solver.Unsat ->
        Unsat (user_core t (Sat.Solver.Incremental.last_core t.inc))
      | Sat.Solver.Unknown ->
        if timed_out || deadline_passed deadline (Sat.Wall.now ()) then
          Timeout
        else if stopping () then Failed "server shutdown"
        else Timeout (* a configured base limit: a resource answer *)
    in
    (outcome, solve_wall, stats)
  end

let execute t ticket ~limits ~stopping =
  let state = locked t (fun () -> t.state) in
  match state with
  | Evicted_ -> resolve_plain ticket Evicted
  | Closed_ -> resolve_plain ticket (Failed "session closed")
  | Live ->
    if stopping () then resolve_plain ticket (Failed "server shutdown")
    else (
      match ticket.op with
      | Add clauses ->
        let rec add = function
          | [] -> resolve_plain ticket Ok_done
          | c :: rest -> (
            match add_user_clause t c with
            | Ok () -> add rest
            | Error msg -> resolve_plain ticket (Failed msg))
        in
        add clauses
      | Assume lits ->
        if Array.exists (fun l -> l = 0) lits then
          resolve_plain ticket (Failed "assumption literal 0")
        else begin
          t.assumptions <- Array.copy lits;
          Array.iter (fun l -> ignore (intern t (abs l))) lits;
          resolve_plain ticket Ok_done
        end
      | Push ->
        let act = Sat.Solver.Incremental.new_var t.inc in
        t.frames <- { act; frame_clauses = [] } :: t.frames;
        resolve_plain ticket Ok_done
      | Pop -> (
        match t.frames with
        | [] -> resolve_plain ticket (Failed "POP without a matching PUSH")
        | f :: rest ->
          (* Retire the frame: the negated activation unit satisfies
             every clause the frame guarded, permanently. *)
          Sat.Solver.Incremental.add_clause t.inc [| -f.act |];
          t.frames <- rest;
          resolve_plain ticket Ok_done)
      | Solve { deadline } ->
        let outcome, solve_wall, stats =
          exec_solve t ~limits ~stopping ~deadline
        in
        resolve ticket outcome ~solve_wall ~stats
      | Close ->
        locked t (fun () -> t.state <- Closed_);
        resolve_plain ticket Ok_done)

type step = {
  executed : (op * answer) option;
  next : [ `More | `Idle | `Closed ];
}

let run_one ~limits ~stopping t =
  Mutex.lock t.m;
  t.checked_out <- true;
  let ticket =
    if Queue.is_empty t.pending then None else Some (Queue.pop t.pending)
  in
  Mutex.unlock t.m;
  (match ticket with
   | None -> ()
   | Some ticket -> (
     try execute t ticket ~limits ~stopping
     with e ->
       resolve_plain ticket (Failed (Printexc.to_string e))));
  Mutex.lock t.m;
  t.checked_out <- false;
  t.running <- None;
  t.last <- Sat.Wall.now ();
  let next =
    if not (Queue.is_empty t.pending) then `More
    else begin
      t.scheduled <- false;
      if t.state = Closed_ then `Closed else `Idle
    end
  in
  Mutex.unlock t.m;
  let executed =
    Option.bind ticket (fun tk ->
        Option.map (fun a -> (tk.op, a)) (poll tk))
  in
  { executed; next }

let drain_pending t =
  let ps = ref [] in
  Queue.iter (fun p -> ps := p :: !ps) t.pending;
  Queue.clear t.pending;
  List.rev !ps

let evict t =
  let ps =
    locked t (fun () ->
        t.state <- Evicted_;
        drain_pending t)
  in
  List.iter (fun p -> resolve_plain p Evicted) ps

let kill t msg =
  let ps =
    locked t (fun () ->
        (match t.running with
         | Some (_, i) -> Sat.Solver.Interrupt.set i
         | None -> ());
        drain_pending t)
  in
  List.iter (fun p -> resolve_plain p (Failed msg)) ps

let interrupt_if_overdue t ~now =
  locked t (fun () ->
      match t.running with
      | Some (Some d, i) when now >= d ->
        t.timed_out <- true;
        Sat.Solver.Interrupt.set i
      | _ -> ())

let is_idle t =
  locked t (fun () -> Queue.is_empty t.pending && not t.checked_out)

let last_use t = locked t (fun () -> t.last)
let depth t = List.length t.frames
let pending_ops t = locked t (fun () -> Queue.length t.pending)
