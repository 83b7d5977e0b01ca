type t = { num_vars : int; clauses : int array array }

let validate num_vars clause =
  Array.iter
    (fun l ->
      if l = 0 || abs l > num_vars then
        invalid_arg
          (Printf.sprintf "Formula: literal %d out of range (1..%d)" l num_vars))
    clause

let create ~num_vars clauses =
  if num_vars < 0 then invalid_arg "Formula.create: negative num_vars";
  List.iter (validate num_vars) clauses;
  { num_vars; clauses = Array.of_list clauses }

let num_clauses f = Array.length f.clauses

let num_literals f =
  Array.fold_left (fun acc c -> acc + Array.length c) 0 f.clauses

let add_clauses f clauses =
  List.iter (validate f.num_vars) clauses;
  { f with clauses = Array.append f.clauses (Array.of_list clauses) }

let eval f assignment =
  if Array.length assignment <> f.num_vars then
    invalid_arg "Formula.eval: assignment size mismatch";
  let lit_true l =
    let v = assignment.(abs l - 1) in
    if l > 0 then v else not v
  in
  Array.for_all (fun c -> Array.exists lit_true c) f.clauses

let is_trivially_unsat f = Array.exists (fun c -> Array.length c = 0) f.clauses

let map_vars f ~f:rename ~num_vars =
  let rename_lit l =
    let v = rename (abs l) in
    if v <= 0 || v > num_vars then invalid_arg "Formula.map_vars: bad target";
    if l > 0 then v else -v
  in
  { num_vars; clauses = Array.map (Array.map rename_lit) f.clauses }
