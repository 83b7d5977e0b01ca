type t = {
  num_vars : int;
  offsets : int array;
  lits : int array;
}

let num_clauses t = Array.length t.offsets - 1
let num_literals t = t.offsets.(num_clauses t)
let clause_size t i = t.offsets.(i + 1) - t.offsets.(i)

let validate t =
  let n = Array.length t.offsets in
  if n < 1 || t.offsets.(0) <> 0 then invalid_arg "Flat: bad offsets";
  for i = 1 to n - 1 do
    if t.offsets.(i) < t.offsets.(i - 1) then invalid_arg "Flat: bad offsets"
  done;
  if t.offsets.(n - 1) <> Array.length t.lits then
    invalid_arg "Flat: bad offsets";
  if t.num_vars < 0 then invalid_arg "Formula.create: negative num_vars";
  Array.iter
    (fun l ->
      if l = 0 || abs l > t.num_vars then
        invalid_arg
          (Printf.sprintf "Formula: literal %d out of range (1..%d)" l
             t.num_vars))
    t.lits

let of_formula (f : Formula.t) =
  let nc = Array.length f.Formula.clauses in
  let offsets = Array.make (nc + 1) 0 in
  for i = 0 to nc - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length f.Formula.clauses.(i)
  done;
  let lits = Array.make offsets.(nc) 0 in
  for i = 0 to nc - 1 do
    Array.blit f.Formula.clauses.(i) 0 lits offsets.(i)
      (Array.length f.Formula.clauses.(i))
  done;
  { num_vars = f.Formula.num_vars; offsets; lits }

let to_formula t =
  let nc = num_clauses t in
  let clauses =
    Array.init nc (fun i ->
        Array.sub t.lits t.offsets.(i) (clause_size t i))
  in
  { Formula.num_vars = t.num_vars; clauses }

let eval t assignment =
  if Array.length assignment <> t.num_vars then
    invalid_arg "Formula.eval: assignment size mismatch";
  let nc = num_clauses t in
  let sat_clause i =
    let stop = t.offsets.(i + 1) in
    let rec go k =
      if k >= stop then false
      else
        let l = Array.unsafe_get t.lits k in
        let v = Array.unsafe_get assignment (abs l - 1) in
        if (if l > 0 then v else not v) then true else go (k + 1)
    in
    go t.offsets.(i)
  in
  let rec all i = if i >= nc then true else sat_clause i && all (i + 1) in
  all 0

(* Clause normalization for the loaders: insertion sort up to
   [insertion_max] values, where it beats anything with setup, and an
   in-place heap sort above it, so one long clause costs O(k log k)
   instead of O(k^2).  Neither allocates. *)
let insertion_max = 24

let sift (a : int array) pos n i0 =
  let x = Array.unsafe_get a (pos + i0) in
  let i = ref i0 in
  let c = ref ((2 * i0) + 1) in
  while !c < n do
    let j =
      if !c + 1 < n
         && Array.unsafe_get a (pos + !c + 1) > Array.unsafe_get a (pos + !c)
      then !c + 1
      else !c
    in
    let y = Array.unsafe_get a (pos + j) in
    if y > x then begin
      Array.unsafe_set a (pos + !i) y;
      i := j;
      c := (2 * j) + 1
    end
    else c := n
  done;
  Array.unsafe_set a (pos + !i) x

let sort_uniq_slice (a : int array) pos n =
  if pos < 0 || n < 0 || pos + n > Array.length a then
    invalid_arg "Flat.sort_uniq_slice";
  if n <= insertion_max then
    for k = pos + 1 to pos + n - 1 do
      let x = Array.unsafe_get a k in
      let j = ref k in
      while !j > pos && Array.unsafe_get a (!j - 1) > x do
        Array.unsafe_set a !j (Array.unsafe_get a (!j - 1));
        decr j
      done;
      Array.unsafe_set a !j x
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a pos n i
    done;
    for e = n - 1 downto 1 do
      let top = Array.unsafe_get a pos in
      Array.unsafe_set a pos (Array.unsafe_get a (pos + e));
      Array.unsafe_set a (pos + e) top;
      sift a pos e 0
    done
  end;
  if n = 0 then 0
  else begin
    let w = ref (pos + 1) in
    for k = pos + 1 to pos + n - 1 do
      let x = Array.unsafe_get a k in
      if x <> Array.unsafe_get a (!w - 1) then begin
        Array.unsafe_set a !w x;
        incr w
      end
    done;
    !w - pos
  end
