type t = Aig.Tt.t -> int

let conventional _ = 1

let branching_raw f =
  List.length (Aig.Isop.compute f)
  + List.length (Aig.Isop.compute (Aig.Tt.not_ f))

(* Costs of the functions of up to 4 variables, one byte per table by
   arity (a cost is at most 2 * 16 cubes); 0 until first asked for,
   since every cost is at least 1.  Portfolio domains map concurrently
   and may both fill one entry: each writes the same byte, so the race
   is benign and needs no lock. *)
let memo = Array.init 5 (fun n -> Bytes.make (1 lsl (1 lsl n)) '\000')

let branching f =
  let n = Aig.Tt.num_vars f in
  if n <= 4 then begin
    let table = memo.(n) and bits = Aig.Tt.to_int f in
    match Char.code (Bytes.get table bits) with
    | 0 ->
      let c = branching_raw f in
      Bytes.set table bits (Char.chr c);
      c
    | c -> c
  end
  else branching_raw f

let table_for_arity n =
  if n > 4 then invalid_arg "Cost.table_for_arity: arity above 4";
  List.map
    (fun f -> (Aig.Tt.to_int f, branching f))
    (Aig.Npn.all_class_representatives n)
