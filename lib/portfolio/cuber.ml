(* Cube-and-conquer: lookahead splitting, work-stealing conquest on
   the domain pool, and RUP proof stitching of the case-split tree.
   See cuber.mli for the contract and DESIGN.md for the discipline. *)

type cube = { lits : int array; dead : bool }

type cube_outcome =
  | Cube_refuted
  | Cube_sat
  | Cube_cancelled
  | Cube_open
  | Cube_failed of string

type report = {
  result : Sat.Solver.result;
  cubes : cube array;
  outcomes : cube_outcome array;
  solved : int;
  steals : int;
  refutation_complete : bool;
  proof_sealed : bool;
  failure : string option;
  wall : float;
  stats : Sat.Solver.stats;
}

let default_cubes = 8
let default_probe_limit = 32

let negate lits = Array.map (fun l -> -l) lits

(* --- cube: BFS lookahead splitting ---------------------------------- *)

let split ?(cubes = default_cubes) ?(probe_limit = default_probe_limit) fl =
  let target = max 1 cubes in
  match Sat.Solver.prober fl with
  | `Unsat -> `Unsat
  | `Prober p -> (
    let exception Sat_found of bool array in
    try
      (* FIFO frontier of live prefixes: popping breadth-first keeps
         the tree balanced; pushing the positive child first makes the
         leaf order deterministic. *)
      let frontier = Queue.create () in
      Queue.push [||] frontier;
      let dead = ref [] (* refuted prefixes, discovery order *) in
      let splits = ref 0 in
      let max_splits = 8 * target in
      while
        Queue.length frontier > 0
        && Queue.length frontier < target
        && !splits < max_splits
      do
        let prefix = Queue.pop frontier in
        match Sat.Solver.probe_split p ~prefix ~limit:probe_limit with
        | `Sat m -> raise (Sat_found m)
        | `Unsat -> dead := prefix :: !dead
        | `Split v ->
          incr splits;
          Queue.push (Array.append prefix [| v |]) frontier;
          Queue.push (Array.append prefix [| -v |]) frontier
      done;
      let live =
        Queue.fold (fun acc prefix -> { lits = prefix; dead = false } :: acc)
          [] frontier
        |> List.rev
      in
      let dead =
        List.rev_map (fun prefix -> { lits = prefix; dead = true }) !dead
      in
      `Cubes (Array.of_list (live @ dead))
    with Sat_found m -> `Sat m)

(* --- stitch: the case-split tree, bottom-up ------------------------- *)

(* Append the refutation tree to [recorder]: first each leaf's clause
   ([¬core] for solver-refuted cubes, [¬cube] for dead ones — already
   logged by the caller into [leaf_clauses]), then every distinct
   proper prefix, longest first.  [¬prefix] at an internal node is RUP
   because the two children's clauses are already in the log: under
   the prefix they are unit on opposite phases of the split variable
   (or outright falsified, when a leaf's core skipped it).  The empty
   prefix is the empty clause and seals the recorder. *)
let stitch recorder cubes leaf_clauses =
  Array.iter (fun clause -> Sat.Proof.add recorder clause) leaf_clauses;
  let seen = Hashtbl.create 16 in
  let prefixes = ref [] in
  Array.iter
    (fun c ->
      for len = Array.length c.lits - 1 downto 0 do
        let prefix = Array.sub c.lits 0 len in
        let key =
          String.concat "," (List.map string_of_int (Array.to_list prefix))
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          prefixes := prefix :: !prefixes
        end
      done)
    cubes;
  let prefixes =
    List.stable_sort
      (fun a b -> compare (Array.length b) (Array.length a))
      (List.rev !prefixes)
  in
  List.iter (fun prefix -> Sat.Proof.add recorder (negate prefix)) prefixes

(* --- conquer: work-stealing conquest -------------------------------- *)

(* [exec] runs an array of worker bodies to completion (inline for the
   sequential path, [Runner.dispatch] for a pool). *)
let conquer ~t0 ~limits ~proof ~log ~on_cube ~nworkers ~exec fl cubes =
  let n = Array.length cubes in
  let live =
    Array.of_list
      (List.filter (fun i -> not cubes.(i).dead) (List.init n Fun.id))
  in
  let outcomes =
    Array.map
      (fun c -> if c.dead then Cube_refuted else Cube_cancelled)
      cubes
  in
  (* Leaf clause owed to the stitched proof, per refuted cube. *)
  let leaf_clause = Array.make n None in
  Array.iteri
    (fun i c -> if c.dead then leaf_clause.(i) <- Some (negate c.lits))
    cubes;
  let recorder =
    match proof with
    | None -> None
    | Some _ -> Some (Sat.Proof.create ~record_deletions:false ())
  in
  (* The conquest's cancellation flag: the caller's [limits.interrupt]
     when given, so setting it stops every cube job. *)
  let cancel =
    match limits.Sat.Solver.interrupt with
    | Some i -> i
    | None -> Sat.Solver.Interrupt.create ()
  in
  let limits = { limits with Sat.Solver.interrupt = Some cancel } in
  let sat_model = Atomic.make None in
  let outright = Atomic.make false in
  let steals = Atomic.make 0 in
  let next = Atomic.make 0 in
  let sm = Mutex.create () in
  let agg = ref Sat.Solver.empty_stats in
  let log_line msg =
    match log with
    | None -> ()
    | Some emit ->
      Mutex.lock sm;
      (try emit msg with _ -> ());
      Mutex.unlock sm
  in
  (* Worker [w] claims live cubes from the shared deque: the atomic
     cursor is the steal point — cube slot [k] is owned by worker
     [k mod nworkers], so a claim by any other worker is a steal. *)
  let body w () =
    let continue_ = ref true in
    while !continue_ do
      let k = Atomic.fetch_and_add next 1 in
      if k >= Array.length live then continue_ := false
      else begin
        let i = live.(k) in
        if nworkers > 1 && k mod nworkers <> w then Atomic.incr steals;
        let c = cubes.(i) in
        let outcome, clause, stats =
          try
            (match on_cube with Some hook -> hook i | None -> ());
            if Sat.Solver.Interrupt.is_set cancel then
              (Cube_cancelled, None, None)
            else begin
              let result, st, core =
                Sat.Solver.solve_assuming ~limits ?proof:recorder
                  ~assumptions:c.lits fl
              in
              match result with
              | Sat.Solver.Sat m ->
                if Atomic.compare_and_set sat_model None (Some m) then begin
                  log_line
                    (Printf.sprintf "cube %d: SAT — cancelling siblings" i);
                  Sat.Solver.Interrupt.set cancel
                end;
                (Cube_sat, None, Some st)
              | Sat.Solver.Unsat ->
                if Array.length core = 0 then begin
                  (* Unsat with an empty core: the base formula is
                     refuted outright and the solver already sealed
                     the shared recorder with the empty clause — no
                     stitching needed. *)
                  Atomic.set outright true;
                  log_line
                    (Printf.sprintf "cube %d: formula UNSAT outright" i);
                  Sat.Solver.Interrupt.set cancel;
                  (Cube_refuted, None, Some st)
                end
                else begin
                  log_line (Printf.sprintf "cube %d: refuted" i);
                  (Cube_refuted, Some (negate core), Some st)
                end
              | Sat.Solver.Unknown -> (
                if Sat.Solver.Interrupt.is_set cancel then
                  (Cube_cancelled, None, Some st)
                else (Cube_open, None, Some st))
            end
          with e -> (Cube_failed (Printexc.to_string e), None, None)
        in
        Mutex.lock sm;
        outcomes.(i) <- outcome;
        (match clause with
         | Some cl -> leaf_clause.(i) <- Some cl
         | None -> ());
        (match stats with
         | Some st -> agg := Sat.Solver.add_stats !agg st
         | None -> ());
        Mutex.unlock sm
      end
    done
  in
  if Array.length live > 0 then
    exec (Array.init nworkers (fun w -> body w));
  let solved =
    Array.fold_left
      (fun acc o ->
        match o with Cube_refuted | Cube_sat -> acc + 1 | _ -> acc)
      0 outcomes
  in
  let failure =
    Array.fold_left
      (fun acc o ->
        match (acc, o) with
        | None, Cube_failed msg -> Some msg
        | acc, _ -> acc)
      None outcomes
  in
  let all_refuted =
    Array.for_all (function Cube_refuted -> true | _ -> false) outcomes
  in
  let result, complete =
    match Atomic.get sat_model with
    | Some m -> (Sat.Solver.Sat m, false)
    | None ->
      if Atomic.get outright || all_refuted then (Sat.Solver.Unsat, true)
      else (Sat.Solver.Unknown, false)
  in
  (match recorder with
   | Some r when complete && not (Sat.Proof.sealed r) ->
     let leaves =
       Array.map
         (function
           | Some clause -> clause
           | None -> assert false (* every refuted cube logged a clause *))
         leaf_clause
     in
     stitch r cubes leaves
   | _ -> ());
  let proof_sealed =
    match recorder with Some r -> Sat.Proof.sealed r | None -> false
  in
  (* The Runner discipline: the caller's recorder absorbs the shared
     log only when it tells the complete story. *)
  (match (proof, recorder) with
   | Some p, Some r when Sat.Proof.sealed r -> Sat.Proof.replay ~into:p r
   | _ -> ());
  {
    result;
    cubes;
    outcomes;
    solved;
    steals = Atomic.get steals;
    refutation_complete = complete;
    proof_sealed;
    failure;
    wall = Sat.Wall.now () -. t0;
    stats = !agg;
  }

(* --- entry points --------------------------------------------------- *)

let trivial_report ~t0 ~result ~proof_sealed ~complete =
  {
    result;
    cubes = [||];
    outcomes = [||];
    solved = 0;
    steals = 0;
    refutation_complete = complete;
    proof_sealed;
    failure = None;
    wall = Sat.Wall.now () -. t0;
    stats = Sat.Solver.empty_stats;
  }

let solve_common ?(cubes = default_cubes) ?(probe_limit = default_probe_limit)
    ?(limits = Sat.Solver.no_limits) ?proof ?log ?on_cube ~exec_for fl =
  let t0 = Sat.Wall.now () in
  match split ~cubes ~probe_limit fl with
  | `Sat m -> trivial_report ~t0 ~result:(Sat.Solver.Sat m) ~proof_sealed:false
                ~complete:false
  | `Unsat ->
    (* Refuted by normalization or level-0 propagation: the empty
       clause is RUP against the formula on its own. *)
    let sealed =
      match proof with
      | Some p ->
        Sat.Proof.add p [||];
        Sat.Proof.sealed p
      | None -> false
    in
    trivial_report ~t0 ~result:Sat.Solver.Unsat ~proof_sealed:sealed
      ~complete:true
  | `Cubes cube_arr ->
    let nlive =
      Array.fold_left (fun acc c -> if c.dead then acc else acc + 1) 0 cube_arr
    in
    let nworkers, exec = exec_for nlive in
    conquer ~t0 ~limits ~proof ~log ~on_cube ~nworkers ~exec fl cube_arr

let run_inline bodies = Array.iter (fun body -> body ()) bodies

let solve_in ?cubes ?probe_limit ?limits ?proof ?log ?on_cube pool fl =
  let exec_for nlive =
    let nworkers = max 1 (min (Runner.pool_size pool) nlive) in
    if nworkers = 1 then (1, run_inline)
    else (nworkers, Runner.dispatch pool)
  in
  solve_common ?cubes ?probe_limit ?limits ?proof ?log ?on_cube ~exec_for fl

let solve ?cubes ?probe_limit ?(jobs = 4) ?limits ?proof ?log ?on_cube fl =
  let jobs = max 1 jobs in
  if jobs = 1 then
    solve_common ?cubes ?probe_limit ?limits ?proof ?log ?on_cube
      ~exec_for:(fun _ -> (1, run_inline))
      fl
  else begin
    let pool = Runner.create_pool ~jobs () in
    Fun.protect
      ~finally:(fun () -> Runner.shutdown_pool pool)
      (fun () ->
        solve_in ?cubes ?probe_limit ?limits ?proof ?log ?on_cube pool fl)
  end
