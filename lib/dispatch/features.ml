(* Integer statistics accumulated in one pass over the CSR clause
   store, then finished into floats. *)

let base_dim = 16
let embedding_dim = 16
let dim = base_dim + embedding_dim

type acc = {
  mutable clauses : int;
  mutable lits : int;
  mutable unit_c : int;
  mutable binary_c : int;
  mutable ternary_c : int;
  mutable max_len : int;
  mutable horn : int; (* clauses with <= 1 positive literal *)
  mutable pos_lits : int;
  pos : int array; (* per-variable positive occurrences, 0-indexed *)
  neg : int array;
}

let make_acc num_vars =
  {
    clauses = 0;
    lits = 0;
    unit_c = 0;
    binary_c = 0;
    ternary_c = 0;
    max_len = 0;
    horn = 0;
    pos_lits = 0;
    pos = Array.make num_vars 0;
    neg = Array.make num_vars 0;
  }

let log2p1 x = Float.log2 (1.0 +. x)

let finish num_vars acc =
  let f = Array.make dim 0.0 in
  let nv = float_of_int num_vars in
  let nc = float_of_int acc.clauses in
  let nl = float_of_int acc.lits in
  let frac_c n = if acc.clauses > 0 then float_of_int n /. nc else 0.0 in
  (* Degree statistics over the declared variable range; unused
     variables are a feature of their own, not noise. *)
  let max_deg = ref 0 in
  let unused = ref 0 in
  let used = ref 0 in
  let imbalance = ref 0.0 in
  let sq_deg = ref 0.0 in
  for v = 0 to num_vars - 1 do
    let p = acc.pos.(v) and n = acc.neg.(v) in
    let d = p + n in
    if d > !max_deg then max_deg := d;
    if d = 0 then incr unused
    else begin
      incr used;
      imbalance :=
        !imbalance +. (float_of_int (abs (p - n)) /. float_of_int d)
    end;
    sq_deg := !sq_deg +. (float_of_int d *. float_of_int d)
  done;
  let mean_deg = if num_vars > 0 then nl /. nv else 0.0 in
  let var_deg =
    if num_vars > 0 then
      let m = !sq_deg /. nv in
      Float.max 0.0 (m -. (mean_deg *. mean_deg))
    else 0.0
  in
  let long_c = acc.clauses - acc.unit_c - acc.binary_c - acc.ternary_c in
  f.(0) <- log2p1 nv;
  f.(1) <- log2p1 nc;
  f.(2) <- (if num_vars > 0 then nc /. nv else 0.0);
  f.(3) <- (if acc.clauses > 0 then nl /. nc else 0.0);
  f.(4) <- frac_c acc.unit_c;
  f.(5) <- frac_c acc.binary_c;
  f.(6) <- frac_c acc.ternary_c;
  f.(7) <- frac_c long_c;
  f.(8) <- log2p1 (float_of_int acc.max_len);
  f.(9) <- frac_c acc.horn;
  f.(10) <- (if acc.lits > 0 then float_of_int acc.pos_lits /. nl else 0.0);
  f.(11) <- mean_deg;
  f.(12) <- log2p1 (float_of_int !max_deg);
  f.(13) <- (if mean_deg > 0.0 then sqrt var_deg /. mean_deg else 0.0);
  f.(14) <- (if num_vars > 0 then float_of_int !unused /. nv else 0.0);
  f.(15) <-
    (if !used > 0 then !imbalance /. float_of_int !used else 0.0);
  f

let of_flat (fl : Cnf.Flat.t) =
  let acc = make_acc fl.num_vars in
  let nc = Cnf.Flat.num_clauses fl in
  for c = 0 to nc - 1 do
    let lo = fl.offsets.(c) and hi = fl.offsets.(c + 1) in
    let npos = ref 0 in
    for k = lo to hi - 1 do
      let lit = fl.lits.(k) in
      if lit > 0 then begin
        incr npos;
        acc.pos.(lit - 1) <- acc.pos.(lit - 1) + 1
      end
      else acc.neg.(-lit - 1) <- acc.neg.(-lit - 1) + 1
    done;
    let len = hi - lo and npos = !npos in
    acc.clauses <- acc.clauses + 1;
    acc.lits <- acc.lits + len;
    (match len with
    | 1 -> acc.unit_c <- acc.unit_c + 1
    | 2 -> acc.binary_c <- acc.binary_c + 1
    | 3 -> acc.ternary_c <- acc.ternary_c + 1
    | _ -> ());
    if len > acc.max_len then acc.max_len <- len;
    if npos <= 1 then acc.horn <- acc.horn + 1;
    acc.pos_lits <- acc.pos_lits + npos
  done;
  finish fl.num_vars acc

let with_embedding base emb =
  if Array.length base <> dim then
    invalid_arg "Features.with_embedding: bad base dimension";
  let out = Array.copy base in
  let n = min embedding_dim (Array.length emb) in
  Array.blit emb 0 out base_dim n;
  out

let names =
  Array.init dim (fun i ->
      match i with
      | 0 -> "log2_vars"
      | 1 -> "log2_clauses"
      | 2 -> "clause_var_ratio"
      | 3 -> "mean_clause_len"
      | 4 -> "frac_unit"
      | 5 -> "frac_binary"
      | 6 -> "frac_ternary"
      | 7 -> "frac_long"
      | 8 -> "log2_max_clause_len"
      | 9 -> "frac_horn"
      | 10 -> "frac_pos_lits"
      | 11 -> "mean_var_degree"
      | 12 -> "log2_max_var_degree"
      | 13 -> "degree_cv"
      | 14 -> "frac_unused_vars"
      | 15 -> "mean_polarity_imbalance"
      | _ -> Printf.sprintf "embedding_%d" (i - base_dim))
