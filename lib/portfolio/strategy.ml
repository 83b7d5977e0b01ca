type t = {
  name : string;
  heuristic : [ `Evsids | `Lrb ];
  restarts : [ `Luby | `Glucose ];
  prepare : (unit -> Cnf.Formula.t) option;
}

let direct ?(heuristic = Sat.Solver.default_config.heuristic)
    ?(restarts = Sat.Solver.default_config.restarts) name =
  { name; heuristic; restarts; prepare = None }

let prepared ?(heuristic = Sat.Solver.default_config.heuristic)
    ?(restarts = Sat.Solver.default_config.restarts) name prepare =
  { name; heuristic; restarts; prepare = Some prepare }

(* Anchor first, then alternate both axes at once (maximally different
   from the anchor), then the two mixed points. *)
let cycle =
  [| ("evsids/glucose", `Evsids, `Glucose);
     ("lrb/luby", `Lrb, `Luby);
     ("evsids/luby", `Evsids, `Luby);
     ("lrb/glucose", `Lrb, `Glucose) |]

let grid n =
  List.init n (fun i ->
      let name, h, r = cycle.(i mod Array.length cycle) in
      if i < Array.length cycle then (name, h, r)
      else (Printf.sprintf "%s#%d" name (i / Array.length cycle), h, r))

let default_pool ~jobs =
  List.map
    (fun (name, heuristic, restarts) ->
      direct ~heuristic ~restarts ("direct/" ^ name))
    (grid (max 1 jobs))

let pp ppf s =
  Format.fprintf ppf "%s (%s, %s%s)" s.name
    (match s.heuristic with `Evsids -> "evsids" | `Lrb -> "lrb")
    (match s.restarts with `Luby -> "luby" | `Glucose -> "glucose")
    (match s.prepare with None -> "" | Some _ -> ", prepared")
