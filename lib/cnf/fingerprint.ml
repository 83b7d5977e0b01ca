type t = {
  h1 : int64;
  h2 : int64;
  num_vars : int;
  num_clauses : int;
}

(* FNV-1a, 64-bit.  Two instances with independent offset bases (the
   second is FNV's offset with its halves swapped) give ~128 bits of
   discrimination; both run over the same literal stream. *)
let fnv_prime = 0x100000001b3L
let offset1 = 0xcbf29ce484222325L
let offset2 = 0x84222325cbf29ceL

let mix h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) fnv_prime

(* Feed a literal (any int) byte by byte, low byte first.  Literals
   are small, but feeding all 8 bytes keeps the stream unambiguous
   without a variable-length encoding. *)
let feed h lit =
  let v = Int64.of_int lit in
  let h = ref h in
  for shift = 0 to 7 do
    h := mix !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

(* Clause separator: literal 0 never occurs in a clause, so feeding it
   between clauses keeps [[1];[2]] distinct from [[1;2]]. *)
let feed_sep h = feed h 0

(* The normal form — per-clause sorted distinct literals with
   tautologies dropped, then the clause multiset deduplicated and
   sorted lexicographically — is computed in two flat scratch arrays
   (a literal stream and a clause-offset index) instead of a list of
   per-clause arrays: two allocations total regardless of clause
   count. *)

let of_csr ~num_vars ~offsets ~(lits : int array) =
  let nc = Array.length offsets - 1 in
  (* Normalize every clause into [norm] (sorted, deduplicated,
     tautologies skipped); [offs.(i)]..[offs.(i+1)] delimits kept
     clause [i]. *)
  let norm = Array.make (Array.length lits) 0 in
  let offs = Array.make (nc + 1) 0 in
  let kept = ref 0 in
  let w = ref 0 in
  for i = 0 to nc - 1 do
    let cst = !w in
    for k = offsets.(i) to offsets.(i + 1) - 1 do
      let l = Array.unsafe_get lits k in
      (* Insertion into the sorted slice [cst .. !w-1], skipping
         duplicates: clauses are short, so this is the cheap sort. *)
      let j = ref !w in
      while !j > cst && Array.unsafe_get norm (!j - 1) > l do
        Array.unsafe_set norm !j (Array.unsafe_get norm (!j - 1));
        decr j
      done;
      if !j > cst && Array.unsafe_get norm (!j - 1) = l then begin
        (* duplicate: undo the shift *)
        let k' = ref !j in
        while !k' < !w do
          Array.unsafe_set norm !k' (Array.unsafe_get norm (!k' + 1));
          incr k'
        done
      end
      else begin
        Array.unsafe_set norm !j l;
        incr w
      end
    done;
    let taut = ref false in
    let j = ref cst in
    while (not !taut) && !j < !w do
      let a = norm.(!j) in
      let k = ref (!j + 1) in
      while (not !taut) && !k < !w do
        if norm.(!k) = -a then taut := true;
        incr k
      done;
      incr j
    done;
    if !taut then w := cst
    else begin
      incr kept;
      offs.(!kept) <- !w
    end
  done;
  let nkept = !kept in
  (* Lexicographic order (elementwise, ties by length) over the kept
     clauses, then adjacent-dedup while hashing. *)
  let cmp_slice i j =
    let sa = offs.(i) and ea = offs.(i + 1) in
    let sb = offs.(j) and eb = offs.(j + 1) in
    let la = ea - sa and lb = eb - sb in
    let rec go k =
      if k >= la || k >= lb then compare la lb
      else
        let c = compare norm.(sa + k) norm.(sb + k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  in
  let idx = Array.init nkept (fun i -> i) in
  Array.sort cmp_slice idx;
  let h1 = ref (feed offset1 num_vars) and h2 = ref (feed offset2 num_vars) in
  let distinct = ref 0 in
  for r = 0 to nkept - 1 do
    let i = idx.(r) in
    if r = 0 || cmp_slice idx.(r - 1) i <> 0 then begin
      incr distinct;
      for k = offs.(i) to offs.(i + 1) - 1 do
        h1 := feed !h1 norm.(k);
        h2 := feed !h2 norm.(k)
      done;
      h1 := feed_sep !h1;
      h2 := feed_sep !h2
    end
  done;
  { h1 = !h1; h2 = !h2; num_vars; num_clauses = !distinct }

let of_flat (t : Flat.t) =
  of_csr ~num_vars:t.Flat.num_vars ~offsets:t.Flat.offsets ~lits:t.Flat.lits

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

let pp ppf t =
  Format.fprintf ppf "%s (%d vars, %d clauses)" (to_hex t) t.num_vars
    t.num_clauses
