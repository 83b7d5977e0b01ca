type t = {
  h1 : int64;
  h2 : int64;
  num_vars : int;
  num_clauses : int;
}

(* Native-int mixing: every step is a multiply by an odd constant and
   an xor-shift on a 63-bit word, so nothing is boxed.  The two lanes
   use different constants and different step shapes, so they are
   independent hashes of the same normal form. *)
let m1 = 0x2545_f491_4f6c_dd1d
let m2 = 0x1f83_d9ab_fb41_bd6b
let m3 = 0x3c6e_f372_fe94_f82b
let m4 = 0x0d2b_74f5_a4f3_e5c7
let seed1 = 0x1bd1_1bda_a9fc_1a22
let seed2 = 0x3243_f6a8_885a_308d

(* Finalizers (murmur3's fmix shape on 63 bits): full avalanche, so
   the table index and the fold see well-spread words. *)
let[@inline] fmix1 x =
  let x = (x lxor (x lsr 31)) * m1 in
  let x = (x lxor (x lsr 29)) * m3 in
  x lxor (x lsr 32)

let[@inline] fmix2 x =
  let x = (x lxor (x lsr 30)) * m2 in
  let x = (x lxor (x lsr 27)) * m4 in
  x lxor (x lsr 31)

(* Per-domain scratch, as in [Gauss] and [Synth.Mffc]: [norm] holds the
   normalized literal keys of the distinct clauses kept so far, clause
   [d] at [start.(d)] .. [start.(d+1) - 1] with first-lane hash
   [h1s.(d)]; [slots] is the open-addressed dedupe table (1 + a distinct
   clause index, 0 when empty).  A steady stream of formulas of similar
   size allocates nothing. *)
type scratch = {
  mutable norm : int array;
  mutable start : int array;
  mutable h1s : int array;
  mutable slots : int array;
}

let create () = { norm = [||]; start = [||]; h1s = [||]; slots = [||] }
let scratch_key = Domain.DLS.new_key create

(* Scratch for formulas up to this size stays with its domain (about
   3 MB at most); a larger formula gets scratch of its own, dropped
   after use. *)
let max_retained_lits = 1 lsl 18
let max_retained_clauses = 1 lsl 16

let fit a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* Table of at least twice as many slots as clauses, a power of two. *)
let table_size nc =
  let c = ref 16 in
  while !c < 2 * nc do
    c := 2 * !c
  done;
  !c

let scratch ~nlits ~nclauses ~slots =
  let s =
    if nlits <= max_retained_lits && nclauses <= max_retained_clauses then
      Domain.DLS.get scratch_key
    else create ()
  in
  s.norm <- fit s.norm nlits;
  s.start <- fit s.start (nclauses + 1);
  s.h1s <- fit s.h1s nclauses;
  s.slots <- fit s.slots slots;
  Array.fill s.slots 0 slots 0;
  s

(* Is distinct clause [d] the key sequence [norm.(w) .. norm.(w+n-1)]? *)
let same_clause s d w n =
  let a = s.start.(d) in
  s.start.(d + 1) - a = n
  &&
  let norm = s.norm in
  let k = ref 0 in
  while
    !k < n && Array.unsafe_get norm (a + !k) = Array.unsafe_get norm (w + !k)
  do
    incr k
  done;
  !k = n

let of_flat (t : Flat.t) =
  let offsets = t.Flat.offsets and lits = t.Flat.lits in
  let nc = Array.length offsets - 1 in
  let nslots = table_size nc in
  let s = scratch ~nlits:(Array.length lits) ~nclauses:nc ~slots:nslots in
  let norm = s.norm and start = s.start and h1s = s.h1s and slots = s.slots in
  let mask = nslots - 1 in
  start.(0) <- 0;
  let d = ref 0 in
  let acc1 = ref 0 and acc2 = ref 0 in
  for i = 0 to nc - 1 do
    let st = offsets.(i) in
    let len = offsets.(i + 1) - st in
    let w = start.(!d) in
    (* Key 2|l| + sign orders literals by variable, then sign, so the
       two literals of a tautology end up adjacent. *)
    for k = 0 to len - 1 do
      let l = Array.unsafe_get lits (st + k) in
      Array.unsafe_set norm (w + k)
        (if l < 0 then ((-l) lsl 1) lor 1 else l lsl 1)
    done;
    let n = Flat.sort_uniq_slice norm w len in
    let taut = ref false in
    let h1 = ref seed1 and h2 = ref seed2 in
    for k = w to w + n - 1 do
      let key = Array.unsafe_get norm k in
      if k > w && Array.unsafe_get norm (k - 1) lxor key = 1 then
        taut := true;
      let x = (!h1 lxor key) * m1 in
      h1 := x lxor (x lsr 29);
      let y = (!h2 + key) * m2 in
      h2 := y lxor (y lsr 31)
    done;
    if not !taut then begin
      let h1 = fmix1 (!h1 + n) and h2 = fmix2 (!h2 lxor n) in
      let j = ref (h1 land mask) in
      let dup = ref false in
      while (not !dup) && Array.unsafe_get slots !j <> 0 do
        let e = Array.unsafe_get slots !j - 1 in
        if h1s.(e) = h1 && same_clause s e w n then dup := true
        else j := (!j + 1) land mask
      done;
      if not !dup then begin
        slots.(!j) <- !d + 1;
        h1s.(!d) <- h1;
        incr d;
        start.(!d) <- w + n;
        (* The fold is a sum, so clause order cannot matter; the second
           mix keeps it from being linear in the clause hashes. *)
        acc1 := !acc1 + fmix2 h1;
        acc2 := !acc2 + fmix1 h2
      end
    end
  done;
  let num_vars = t.Flat.num_vars in
  {
    h1 = Int64.of_int (fmix1 (!acc1 lxor fmix2 (num_vars + seed1)));
    h2 = Int64.of_int (fmix2 (!acc2 + fmix1 (num_vars lxor seed2)));
    num_vars;
    num_clauses = !d;
  }

let equal a b =
  Int64.equal a.h1 b.h1 && Int64.equal a.h2 b.h2 && a.num_vars = b.num_vars
  && a.num_clauses = b.num_clauses

let compare a b =
  match Int64.compare a.h1 b.h1 with
  | 0 -> (
    match Int64.compare a.h2 b.h2 with
    | 0 -> (
      match Stdlib.compare a.num_vars b.num_vars with
      | 0 -> Stdlib.compare a.num_clauses b.num_clauses
      | c -> c)
    | c -> c)
  | c -> c

let hash t = Int64.to_int t.h1 land max_int

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.h1 t.h2
