(* Synthesis operators, one at a time: the [synth] suite.

     dune exec bench/bench.exe -- synth
     dune exec bench/bench.exe -- synth --check BENCH_synth.json

   Takes each instance of I1-I5, C1-C8 and the portfolio suite's
   [r3sat-easy] through the default recipe of Algorithm 1 ([balance;
   rewrite; resub; rewrite; balance], {!Eda4sat.Pipeline.ours}) one
   operator at a time, and reports the CPU seconds and the AND count
   after each operator.  The first balance is the one that turns the
   CNF-recovered constraint chains into the balanced inputs the later
   operators see.  For the FRAIG sweep ([resub]) it also reports the
   candidates tried, proven and disproved, and the major-heap words
   allocated while it ran.

   The AND counts and the FRAIG counts are deterministic, so the gate
   holds them equal to the committed file.  Timing gates only on
   resub's CPU: the suite total against 1.5x the committed total, and
   [r3sat-easy] against a fixed 2.5 s ceiling.  Wall time is not
   gated. *)

let r3sat_easy () =
  Eda4sat.Instance.of_cnf ~name:"r3sat-easy"
    (Workloads.Satcomp.random_ksat ~seed:3 ~num_vars:6000 ~num_clauses:18000
       ~k:3)

(* Labels: "I1".."C8" for the paper's suites, then r3sat-easy. *)
let labels = [ "I1"; "I2"; "I3"; "I4"; "I5"; "C1"; "C2"; "C3"; "C4"; "C5";
               "C6"; "C7"; "C8"; "r3sat-easy" ]

let instances () =
  List.map
    (fun (name, inst) -> (String.sub name 0 2, inst))
    (Workloads.Suites.i_suite () @ Workloads.Suites.c_suite ())
  @ [ ("r3sat-easy", r3sat_easy ()) ]

let recipe =
  match (Eda4sat.Pipeline.ours ()).Eda4sat.Pipeline.recipe with
  | Eda4sat.Pipeline.Fixed ops -> ops
  | _ -> invalid_arg "Pipeline.ours () without an agent runs a fixed recipe"

type step = { op : string; cpu_s : float; ands : int }

type row = {
  label : string;
  ands_in : int;
  steps : step list;
  tried : int;
  proven : int;
  disproved : int;
  resub_cpu_s : float;
  resub_major_words : float;
}

let cpu_timed f =
  let c0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. c0)

let major_words () =
  let _, _, major = Gc.counters () in
  major

let measure (label, inst) =
  let g = Eda4sat.Instance.to_aig inst in
  let ands_in = Aig.Graph.num_ands g in
  let counts = ref (0, 0, 0) and resub = ref (0.0, 0.0) in
  let _, steps =
    List.fold_left
      (fun (g, steps) op ->
        let g', cpu_s =
          match op with
          | Synth.Recipe.Resub ->
            let w0 = major_words () in
            let (g', tried, proven, disproved), cpu_s =
              cpu_timed (fun () -> Synth.Resub.run_with_counts g)
            in
            counts := (tried, proven, disproved);
            resub := (cpu_s, major_words () -. w0);
            (g', cpu_s)
          | op -> cpu_timed (fun () -> Synth.Recipe.apply op g)
        in
        ( g',
          { op = Synth.Recipe.op_to_string op; cpu_s;
            ands = Aig.Graph.num_ands g' }
          :: steps ))
      (g, []) recipe
  in
  let tried, proven, disproved = !counts in
  let resub_cpu_s, resub_major_words = !resub in
  { label; ands_in; steps = List.rev steps; tried; proven; disproved;
    resub_cpu_s; resub_major_words }

let is_suite r = r.label <> "r3sat-easy"

let total f rows = List.fold_left (fun acc r -> acc +. f r) 0.0 rows

(* Per-instance numbers the gate holds exactly: the AND count after
   each step and the FRAIG counts. *)
let exact_fields =
  List.mapi (fun i _ -> Printf.sprintf "ands_%d" (i + 1)) recipe
  @ [ "ands_in"; "resub_tried"; "resub_proven"; "resub_disproved" ]

let exact_values r =
  List.map (fun s -> s.ands) r.steps
  @ [ r.ands_in; r.tried; r.proven; r.disproved ]

let run () =
  Printf.printf "synth bench: recipe %s\n%!" (Synth.Recipe.to_string recipe);
  let rows =
    List.map
      (fun inst ->
        let r = measure inst in
        Printf.printf
          "  %-10s ands %6d ->%s  resub %d/%d/%d %.3fs %.0f major words\n%!"
          r.label r.ands_in
          (String.concat ""
             (List.map
                (fun s -> Printf.sprintf " %s %.3fs %d" s.op s.cpu_s s.ands)
                r.steps))
          r.tried r.proven r.disproved r.resub_cpu_s r.resub_major_words;
        r)
      (instances ())
  in
  let suite_rows = List.filter is_suite rows in
  let per_op =
    List.mapi
      (fun i op ->
        ( Printf.sprintf "%d_%s" (i + 1) (Synth.Recipe.op_to_string op),
          total (fun r -> (List.nth r.steps i).cpu_s) suite_rows ))
      recipe
  in
  let resub_total = total (fun r -> r.resub_cpu_s) suite_rows in
  let r3 = List.find (fun r -> r.label = "r3sat-easy") rows in
  Printf.printf "suite CPU per operator:%s\n%!"
    (String.concat ""
       (List.map (fun (k, t) -> Printf.sprintf " %s %.3fs" k t) per_op));
  let open Harness in
  let doc =
    Obj
      [
        ("recipe", Str (Synth.Recipe.to_string recipe));
        ("suite_cpu_s", Obj (List.map (fun (k, t) -> (k, fixed 3 t)) per_op));
        ("suite_resub_cpu_s", fixed 3 resub_total);
        ( "suite_resub_major_words",
          fixed 0 (total (fun r -> r.resub_major_words) suite_rows) );
        ("r3sat_easy_resub_cpu_s", fixed 3 r3.resub_cpu_s);
        ( "instances",
          Obj
            (List.map
               (fun r ->
                 ( r.label,
                   Obj
                     (List.map2 (fun k v -> (k, int v)) exact_fields
                        (exact_values r)
                     @ [ ("resub_cpu_s", fixed 3 r.resub_cpu_s);
                         ("resub_major_words", fixed 0 r.resub_major_words);
                         ( "cpu_s",
                           fixed 3 (total (fun s -> s.cpu_s) r.steps) ) ]) ))
               rows) );
      ]
  in
  Some
    ( doc,
      fun committed ->
        let exact =
          List.concat_map
            (fun r ->
              List.map2
                (fun k v ->
                  let c = committed [ "instances"; r.label; k ] in
                  number_condition
                    (Printf.sprintf "%s %s" r.label k)
                    "=" Float.equal (float_of_int v) c)
                exact_fields (exact_values r))
            rows
        in
        exact
        @ [
            at_most "suite resub CPU vs 1.5x committed" resub_total
              (1.5 *. committed [ "suite_resub_cpu_s" ]);
            at_most "r3sat-easy resub CPU vs 2.5 s" r3.resub_cpu_s 2.5;
          ] )

let suite =
  {
    Harness.name = "synth";
    doc = "default-recipe operators one at a time: CPU, ANDs, FRAIG counts";
    keys =
      [ "suite_resub_cpu_s" ]
      :: List.concat_map
           (fun l -> List.map (fun k -> [ "instances"; l; k ]) exact_fields)
           labels;
    run;
  }
