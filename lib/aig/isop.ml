(* Minato-Morreale ISOP: recursive decomposition on the top variable of
   the interval [l, u] (l <= f <= u).  For completely specified functions
   the initial call uses l = u = f.  Each recursive step computes the
   cubes that must contain ~x, the cubes that must contain x, and a
   shared remainder cover independent of x. *)

let rec isop l u n =
  if Tt.is_const_false l then ([], Tt.create_const n false)
  else if Tt.is_const_true u then ([ Cube.full ], Tt.create_const n true)
  else begin
    let x =
      match Tt.support u with
      | v :: _ -> v
      | [] -> (match Tt.support l with
          | v :: _ -> v
          | [] ->
            (* l nonconstant is impossible here: no support means const. *)
            assert false)
    in
    let l0 = Tt.cofactor l x false and l1 = Tt.cofactor l x true in
    let u0 = Tt.cofactor u x false and u1 = Tt.cofactor u x true in
    (* Cubes needed specifically on the x=0 side. *)
    let c0, g0 = isop (Tt.and_ l0 (Tt.not_ u1)) u0 n in
    (* Cubes needed specifically on the x=1 side. *)
    let c1, g1 = isop (Tt.and_ l1 (Tt.not_ u0)) u1 n in
    let lnew =
      Tt.or_ (Tt.and_ l0 (Tt.not_ g0)) (Tt.and_ l1 (Tt.not_ g1))
    in
    let cs, gs = isop lnew (Tt.and_ u0 u1) n in
    let vx = Tt.var n x in
    let cover =
      Tt.or_ gs
        (Tt.or_ (Tt.and_ (Tt.not_ vx) g0) (Tt.and_ vx g1))
    in
    let cubes =
      List.map (fun c -> Cube.add_neg c x) c0
      @ List.map (fun c -> Cube.add_pos c x) c1
      @ cs
    in
    (cubes, cover)
  end

(* The same recursion on a table of up to 5 variables held in an
   immediate int (2^5 = 32 bits).  [full] is the table of constant true
   and [mask]/[pol] the literals the enclosing calls added.  Cubes are
   pushed on [out] as they are found, which is the reverse of the order
   the list version returns them in. *)
let var_bits = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let cofactor0 t i =
  let p = t land lnot var_bits.(i) in
  p lor (p lsl (1 lsl i))

let cofactor1 t i =
  let p = t land var_bits.(i) in
  p lor (p lsr (1 lsl i))

(* Lowest variable [t] depends on, or -1. *)
let top_var n t =
  let rec go i =
    if i >= n then -1
    else if cofactor0 t i <> cofactor1 t i then i
    else go (i + 1)
  in
  go 0

let rec isop_small n full l u mask pol out =
  if l = 0 then 0
  else if u = full then begin
    out := { Cube.mask; pol } :: !out;
    full
  end
  else begin
    let x = match top_var n u with -1 -> top_var n l | v -> v in
    assert (x >= 0);
    let bx = 1 lsl x in
    let l0 = cofactor0 l x and l1 = cofactor1 l x in
    let u0 = cofactor0 u x and u1 = cofactor1 u x in
    let g0 = isop_small n full (l0 land lnot u1) u0 (mask lor bx) pol out in
    let g1 =
      isop_small n full (l1 land lnot u0) u1 (mask lor bx) (pol lor bx) out
    in
    let lnew = (l0 land lnot g0) lor (l1 land lnot g1) in
    let gs = isop_small n full lnew (u0 land u1) mask pol out in
    let vx = var_bits.(x) land full in
    gs lor (lnot vx land g0 land full) lor (vx land g1)
  end

let compute f =
  let n = Tt.num_vars f in
  if n <= 5 then begin
    let full = (1 lsl (1 lsl n)) - 1 and bits = Tt.to_int f in
    let out = ref [] in
    let cover = isop_small n full bits bits 0 0 out in
    assert (cover = bits);
    List.rev !out
  end
  else begin
    let cubes, cover = isop f f n in
    assert (Tt.equal cover f);
    cubes
  end

let cover_tt n cubes =
  List.fold_left
    (fun acc c -> Tt.or_ acc (Cube.to_tt n c))
    (Tt.create_const n false) cubes

let verify f cubes = Tt.equal f (cover_tt (Tt.num_vars f) cubes)
let num_cubes f = List.length (compute f)
let literal_count cubes =
  List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 cubes
