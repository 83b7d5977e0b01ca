type t = { n : int; w : int64 array }

(* Tables over n <= 6 variables use a single word whose high bits beyond
   2^n are kept zero; larger tables use 2^(n-6) full words. *)

let nwords n = if n <= 6 then 1 else 1 lsl (n - 6)

let word_mask n =
  if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let num_vars t = t.n

let create_const n v =
  if n < 0 || n > 16 then invalid_arg "Tt.create_const: arity out of range";
  let fill = if v then word_mask n else 0L in
  { n; w = Array.make (nwords n) fill }

(* Repeating bit patterns for variables 0..5 within one word. *)
let var_masks =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let var n i =
  if i < 0 || i >= n then invalid_arg "Tt.var: index out of range";
  let words = nwords n in
  let w =
    if i < 6 then Array.make words (Int64.logand var_masks.(i) (word_mask n))
    else
      Array.init words (fun k ->
          if k land (1 lsl (i - 6)) <> 0 then -1L else 0L)
  in
  { n; w }

let map2 f a b =
  if a.n <> b.n then invalid_arg "Tt: arity mismatch";
  { n = a.n; w = Array.init (Array.length a.w) (fun i -> f a.w.(i) b.w.(i)) }

let not_ a =
  let m = word_mask a.n in
  { a with w = Array.map (fun x -> Int64.logand (Int64.lognot x) m) a.w }

let and_ = map2 Int64.logand
let or_ = map2 Int64.logor
let xor_ = map2 Int64.logxor
let equal a b = a.n = b.n && a.w = b.w
let is_const_false a = Array.for_all (fun x -> x = 0L) a.w
let is_const_true a = equal a (create_const a.n true)

let get_bit t m =
  let word = m lsr 6 and bit = m land 63 in
  Int64.logand (Int64.shift_right_logical t.w.(word) bit) 1L = 1L

let set_bit t m v =
  let word = m lsr 6 and bit = m land 63 in
  let w = Array.copy t.w in
  let mask = Int64.shift_left 1L bit in
  w.(word) <-
    (if v then Int64.logor w.(word) mask
     else Int64.logand w.(word) (Int64.lognot mask));
  { t with w }

let popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let count_ones t = Array.fold_left (fun acc x -> acc + popcount64 x) 0 t.w

let cofactor t i v =
  let vi = var t.n i in
  let mask = if v then vi else not_ vi in
  let proj = and_ t mask in
  (* Mirror the kept half onto the other half so the result is
     independent of variable i. *)
  let shift = 1 lsl i in
  if i < 6 then
    let w =
      Array.map
        (fun x ->
          if v then Int64.logor x (Int64.shift_right_logical x shift)
          else Int64.logor x (Int64.shift_left x shift))
        proj.w
    in
    let m = word_mask t.n in
    { n = t.n; w = Array.map (fun x -> Int64.logand x m) w }
  else
    let stride = 1 lsl (i - 6) in
    let w = Array.copy proj.w in
    let words = Array.length w in
    let k = ref 0 in
    while !k < words do
      for j = 0 to stride - 1 do
        let lo = !k + j and hi = !k + stride + j in
        if v then w.(lo) <- w.(hi) else w.(hi) <- w.(lo)
      done;
      k := !k + (2 * stride)
    done;
    { n = t.n; w }

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let support t =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if depends_on t i then i :: acc else acc)
  in
  loop (t.n - 1) []

let expand t n' perm =
  if Array.length perm <> t.n then invalid_arg "Tt.expand: bad permutation";
  let r = ref (create_const n' false) in
  for m = 0 to (1 lsl t.n) - 1 do
    if get_bit t m then begin
      (* Minterm m of t becomes a cube over the new variables: variables
         in perm are fixed, the rest are free. *)
      let cube = ref (create_const n' true) in
      for i = 0 to t.n - 1 do
        let v = var n' perm.(i) in
        cube := and_ !cube (if m land (1 lsl i) <> 0 then v else not_ v)
      done;
      r := or_ !r !cube
    end
  done;
  !r

let permute t perm = expand t t.n perm

let flip t i =
  let c0 = cofactor t i false and c1 = cofactor t i true in
  let vi = var t.n i in
  or_ (and_ vi c0) (and_ (not_ vi) c1)

let swap_adjacent t i =
  if i < 0 || i + 1 >= t.n then invalid_arg "Tt.swap_adjacent";
  let perm = Array.init t.n (fun j ->
      if j = i then i + 1 else if j = i + 1 then i else j)
  in
  permute t perm

let of_int64 n bits =
  if n < 0 || n > 6 then invalid_arg "Tt.of_int64: arity out of range";
  { n; w = [| Int64.logand bits (word_mask n) |] }

let of_int n bits =
  if n > 6 then invalid_arg "Tt.of_int: arity above 6";
  of_int64 n (Int64.of_int bits)

let to_int t =
  if t.n > 6 then invalid_arg "Tt.to_int: arity above 6";
  Int64.to_int t.w.(0)

let to_hex t =
  String.concat ""
    (List.rev_map (Printf.sprintf "%016Lx") (Array.to_list t.w))

let hash t = Hashtbl.hash (t.n, t.w)
let compare a b = Stdlib.compare (a.n, a.w) (b.n, b.w)
let pp ppf t = Format.fprintf ppf "tt%d:%s" t.n (to_hex t)
