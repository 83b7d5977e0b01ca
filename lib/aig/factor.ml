let lit_of g leaves (v, positive) =
  ignore g;
  Graph.lit_not_cond leaves.(v) (not positive)

let cube_to_aig g ~leaves c =
  Graph.and_list g (List.map (lit_of g leaves) (Cube.literals c))

(* Most frequent literal across the cubes (variable, polarity), or None
   when no literal appears in two or more cubes. *)
let best_literal cubes =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun lit ->
          let n = Option.value (Hashtbl.find_opt counts lit) ~default:0 in
          Hashtbl.replace counts lit (n + 1))
        (Cube.literals c))
    cubes;
  Hashtbl.fold
    (fun lit n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ when n >= 2 -> Some (lit, n)
      | _ -> best)
    counts None

let remove_literal (v, positive) c =
  let keep = List.filter (fun l -> l <> (v, positive)) (Cube.literals c) in
  List.fold_left
    (fun acc (v, pos) -> if pos then Cube.add_pos acc v else Cube.add_neg acc v)
    Cube.full keep

let has_literal (v, positive) c =
  if positive then Cube.mem_pos c v else Cube.mem_neg c v

let rec sop_to_aig g ~leaves cubes =
  match cubes with
  | [] -> Graph.const_false
  | [ c ] -> cube_to_aig g ~leaves c
  | _ -> (
    match best_literal cubes with
    | None ->
      Graph.or_list g (List.map (cube_to_aig g ~leaves) cubes)
    | Some (lit, _) ->
      let quotient, remainder = List.partition (has_literal lit) cubes in
      let q = sop_to_aig g ~leaves (List.map (remove_literal lit) quotient) in
      let head = Graph.and_ g (lit_of g leaves lit) q in
      if remainder = [] then head
      else Graph.or_ g head (sop_to_aig g ~leaves remainder))

let tt_to_aig g ~leaves f =
  if Tt.num_vars f <> Array.length leaves then
    invalid_arg "Factor.tt_to_aig: arity mismatch";
  if Tt.num_vars f <= 3 then Exact.build g ~leaves f
  else
  let on = Isop.compute f and off = Isop.compute (Tt.not_ f) in
  let cost cs = (2 * Isop.literal_count cs) + List.length cs in
  if cost on <= cost off then sop_to_aig g ~leaves on
  else Graph.lit_not (sop_to_aig g ~leaves off)

(* A tape is what [tt_to_aig] creates for one function on fresh PIs: the
   fanins of each new AND in creation order, as literals over tape
   nodes (0 the constant, 1..k the PIs, k + 1 + i the i-th AND), plus
   the output literal. *)
type tape = { fan0 : Graph.lit array; fan1 : Graph.lit array; out : Graph.lit }

let record f =
  let k = Tt.num_vars f in
  let g = Graph.create ~num_pis:k in
  let out = tt_to_aig g ~leaves:(Array.init k (Graph.pi g)) f in
  let first = k + 1 in
  let ands = Graph.num_nodes g - first in
  {
    fan0 = Array.init ands (fun i -> Graph.fanin0 g (first + i));
    fan1 = Array.init ands (fun i -> Graph.fanin1 g (first + i));
    out;
  }

(* Every [Graph.and_] call of a direct build either folds, hits the
   strash entry of an earlier call with the same operands, or creates
   the node the tape recorded; only the last kind has an effect, so
   replaying those calls in order is the direct build. *)
let replay g ~leaves t =
  let k = Array.length leaves in
  let map = Array.make (k + 1 + Array.length t.fan0) Graph.const_false in
  Array.blit leaves 0 map 1 k;
  let lit l = Graph.lit_not_cond map.(Graph.node_of_lit l) (Graph.is_compl l) in
  for i = 0 to Array.length t.fan0 - 1 do
    map.(k + 1 + i) <- Graph.and_ g (lit t.fan0.(i)) (lit t.fan1.(i))
  done;
  lit t.out

module Tapes = Hashtbl.Make (struct
  type t = Tt.t

  let equal = Tt.equal
  let hash = Tt.hash
end)

type cache = tape Tapes.t

let create_cache () = Tapes.create 256

let tt_to_aig_cached cache g ~leaves f =
  if Tt.num_vars f <> Array.length leaves then
    invalid_arg "Factor.tt_to_aig_cached: arity mismatch";
  let t =
    match Tapes.find_opt cache f with
    | Some t -> t
    | None ->
      let t = record f in
      Tapes.add cache f t;
      t
  in
  replay g ~leaves t
