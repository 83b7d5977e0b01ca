(* Cube-and-conquer: lookahead splitting, work-stealing conquest over
   [Runner.spread], and RUP proof stitching of the case-split tree.
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

(* Conquer the live cubes with [jobs] workers claiming them through
   [Runner.spread], then stitch; the report's [wall] is set by [solve]. *)
let conquer ~jobs ~limits ~proof ~log ~on_cube fl cubes =
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
  (* The caller's scope flag, else a fresh one; every claim runs in it. *)
  let cancel =
    Option.value (Aig.Interrupt.current ()) ~default:(Aig.Interrupt.create ())
  in
  let log_line = Runner.serialize log in
  let sat_model = Atomic.make None in
  let outright = Atomic.make false in
  let steals = Atomic.make 0 in
  let sm = Mutex.create () in
  let agg = ref Sat.Solver.empty_stats in
  let workers = max 1 (min jobs (Array.length live)) in
  (* Live cube slot [k] is owned by worker [k mod workers], so a claim
     by any other worker is a steal. *)
  let claim recorder ~worker k =
    let i = live.(k) in
    if workers > 1 && k mod workers <> worker then Atomic.incr steals;
    let c = cubes.(i) in
    let outcome, clause, stats =
      try
        (match on_cube with Some hook -> hook i | None -> ());
        if Aig.Interrupt.is_set cancel then (Cube_cancelled, None, None)
        else begin
          let result, st, core =
            Sat.Solver.solve_assuming ~limits ?proof:recorder
              ~assumptions:c.lits fl
          in
          match result with
          | Sat.Solver.Sat m ->
            if Atomic.compare_and_set sat_model None (Some m) then begin
              log_line (Printf.sprintf "cube %d: SAT — cancelling siblings" i);
              Aig.Interrupt.set cancel
            end;
            (Cube_sat, None, Some st)
          | Sat.Solver.Unsat ->
            if Array.length core = 0 then begin
              (* Unsat with an empty core: the base formula is refuted
                 outright and the solver already sealed the shared
                 recorder with the empty clause — no stitching
                 needed. *)
              Atomic.set outright true;
              log_line (Printf.sprintf "cube %d: formula UNSAT outright" i);
              Aig.Interrupt.set cancel;
              (Cube_refuted, None, Some st)
            end
            else begin
              log_line (Printf.sprintf "cube %d: refuted" i);
              (Cube_refuted, Some (negate core), Some st)
            end
          | Sat.Solver.Unknown ->
            if Aig.Interrupt.is_set cancel then
              (Cube_cancelled, None, Some st)
            else (Cube_open, None, Some st)
        end
      with e -> (Cube_failed (Printexc.to_string e), None, None)
    in
    Mutex.protect sm (fun () ->
        outcomes.(i) <- outcome;
        Option.iter (fun cl -> leaf_clause.(i) <- Some cl) clause;
        Option.iter (fun st -> agg := Sat.Solver.add_stats !agg st) stats)
  in
  Runner.with_shared_proof proof (fun recorder ->
      Runner.spread ~workers (Array.length live) (fun ~worker k ->
          Aig.Interrupt.within cancel (fun () -> claim recorder ~worker k));
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
      {
        result;
        cubes;
        outcomes;
        solved;
        steals = Atomic.get steals;
        refutation_complete = complete;
        proof_sealed =
          (match recorder with Some r -> Sat.Proof.sealed r | None -> false);
        failure;
        wall = 0.0;
        stats = !agg;
      })

(* --- entry point ---------------------------------------------------- *)

let trivial_report ~result ~proof_sealed ~complete =
  {
    result;
    cubes = [||];
    outcomes = [||];
    solved = 0;
    steals = 0;
    refutation_complete = complete;
    proof_sealed;
    failure = None;
    wall = 0.0;
    stats = Sat.Solver.empty_stats;
  }

let solve ?(cubes = default_cubes) ?(probe_limit = default_probe_limit)
    ?(jobs = 4) ?(limits = Sat.Solver.no_limits) ?proof ?log ?on_cube fl =
  let t0 = Sat.Wall.now () in
  let report =
    match split ~cubes ~probe_limit fl with
    | `Sat m ->
      trivial_report ~result:(Sat.Solver.Sat m) ~proof_sealed:false
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
      trivial_report ~result:Sat.Solver.Unsat ~proof_sealed:sealed
        ~complete:true
    | `Cubes cube_arr ->
      conquer ~jobs ~limits ~proof ~log ~on_cube fl cube_arr
  in
  { report with wall = Sat.Wall.now () -. t0 }
