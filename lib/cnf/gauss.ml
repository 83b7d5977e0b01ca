(* Level-0 XOR reasoning.  Clauses of width 1..max_width are grouped by
   variable set in an open-addressed table; each group records which
   sign patterns it has seen.  A clause's pattern has bit i set when its
   i-th literal (in ascending variable order) is negative.  The
   [2^(k-1)] clauses of [x1 ⊕ … ⊕ xk = r] are exactly the patterns with
   an even number of negations when r = 1 and an odd number when r = 0,
   so the patterns are kept as two bit masks, one per parity class, each
   indexed by the pattern's low k - 1 bits (the last bit follows from
   the parity).  A class mask with all [2^(k-1)] bits set is an XOR. *)

let max_width = 6
let max_matrix_words = 1 lsl 22
let max_work = 1 lsl 26

(* Group record, [stride] ints from [groups.(o)]:
     o          key: (hash lsl 3) lor width, never 0
     o + 1..3   the variables, ascending, two to a word (31 bits each)
     o + 4      pattern mask of the even class (XOR with rhs 1)
     o + 5      pattern mask of the odd class (rhs 0)
   Records are dense, in order of first sight.  [slots] is the hash
   table over them: a slot holds [(tag lsl 31) lor (index + 1)], 0 when
   empty, where the tag is the key's top bits, so a probe past another
   variable set rarely reads its record. *)
let stride = 6
let slot_of key r = ((key lsr 34) lsl 31) lor (r + 1)
let record e = ((e land 0x7FFFFFFF) - 1) * stride

type t = {
  mutable slots : int array;
  mutable groups : int array;
  mutable ngroups : int;
  mutable xors : int;
  (* The variable set being looked up: its key and packed words. *)
  mutable key : int;
  mutable w0 : int;
  mutable w1 : int;
  mutable w2 : int;
  (* [add_clause]'s scratch: a clause's distinct literals, sorted. *)
  buf : int array;
}

let create () =
  { slots = [||]; groups = [||]; ngroups = 0; xors = 0; key = 0; w0 = 0;
    w1 = 0; w2 = 0; buf = Array.make (max_width + 1) 0 }

let count g = g.xors
let full k = (1 lsl (1 lsl (k - 1))) - 1
let width g o = g.groups.(o) land 7

let var g o j =
  (g.groups.(o + 1 + (j lsr 1)) lsr (31 * (j land 1))) land 0x7FFFFFFF

(* Load the variable set of internal literals [b.(0..n-1)] into
   [g.key] and [g.w0..w2]. *)
let[@inline] packed b n i =
  (if i < n then Array.unsafe_get b i lsr 1 else 0)
  lor if i + 1 < n then (Array.unsafe_get b (i + 1) lsr 1) lsl 31 else 0

let pack g b n =
  let w0 = packed b n 0 and w1 = packed b n 2 and w2 = packed b n 4 in
  let h =
    (w0 * 0x9E3779B97F4A7C1) + (w1 * 0x2545F4914F6CDD1D)
    + (w2 * 0x1B873593CC9E2D51) + n
  in
  let h = (h lxor (h lsr 29)) * 0x3243F6A8885A308D in
  g.key <- (((h lxor (h lsr 32)) lsl 3) lor n) land max_int;
  g.w0 <- w0;
  g.w1 <- w1;
  g.w2 <- w2

(* The slot of the packed variable set's record, or the empty slot
   where it belongs. *)
let find g =
  let slots = g.slots and groups = g.groups in
  let mask = Array.length slots - 1 in
  let tag = g.key lsr 34 in
  let i = ref ((g.key lsr 3) land mask) in
  let continue = ref true in
  while !continue do
    let e = Array.unsafe_get slots !i in
    if e = 0 then continue := false
    else if e lsr 31 = tag
         &&
         let o = record e in
         groups.(o) = g.key && groups.(o + 1) = g.w0
         && groups.(o + 2) = g.w1 && groups.(o + 3) = g.w2
    then continue := false
    else i := (!i + 1) land mask
  done;
  !i

(* Room for [n] records, with at least twice as many slots (the load
   stays at most one half), rehashing the records already held. *)
let reserve g n =
  if 2 * n > Array.length g.slots then begin
    let cap = ref 64 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    let slots = Array.make !cap 0 in
    for r = 0 to g.ngroups - 1 do
      let key = g.groups.(r * stride) in
      let i = ref ((key lsr 3) land (!cap - 1)) in
      while slots.(!i) <> 0 do
        i := (!i + 1) land (!cap - 1)
      done;
      slots.(!i) <- slot_of key r
    done;
    g.slots <- slots
  end;
  if n * stride > Array.length g.groups then begin
    let groups = Array.make (n * stride) 0 in
    Array.blit g.groups 0 groups 0 (g.ngroups * stride);
    g.groups <- groups
  end

(* Tables up to this many slots (65536 clauses, 4 MB) stay with their
   domain between solves, so a stream of formulas of that size
   allocates nothing; a larger table is dropped after use. *)
let max_retained_slots = 1 lsl 17

let local_key = Domain.DLS.new_key create

let local n =
  let g = Domain.DLS.get local_key in
  let g =
    if Array.length g.slots > max_retained_slots then begin
      let g = create () in
      Domain.DLS.set local_key g;
      g
    end
    else begin
      (* Empty the slots the last formula used: one by one when it used
         few of them, else all at once. *)
      let slots = g.slots in
      let mask = Array.length slots - 1 in
      if 8 * g.ngroups > Array.length slots then
        Array.fill slots 0 (Array.length slots) 0
      else
        for r = 0 to g.ngroups - 1 do
          let key = g.groups.(r * stride) in
          let i = ref ((key lsr 3) land mask) in
          while slots.(!i) <> slot_of key r do
            i := (!i + 1) land mask
          done;
          slots.(!i) <- 0
        done;
      g.ngroups <- 0;
      g.xors <- 0;
      g
    end
  in
  reserve g (min n (max_retained_slots / 2));
  g

let add g b n =
  if n >= 1 && n <= max_width then begin
    if (g.ngroups + 1) * stride > Array.length g.groups then
      reserve g (max 32 (2 * g.ngroups));
    pack g b n;
    let i = find g in
    let e = Array.unsafe_get g.slots i in
    let groups = g.groups in
    let o =
      if e <> 0 then record e
      else begin
        let o = g.ngroups * stride in
        groups.(o) <- g.key;
        groups.(o + 1) <- g.w0;
        groups.(o + 2) <- g.w1;
        groups.(o + 3) <- g.w2;
        groups.(o + 4) <- 0;
        groups.(o + 5) <- 0;
        g.slots.(i) <- slot_of g.key g.ngroups;
        g.ngroups <- g.ngroups + 1;
        o
      end
    in
    let pat = ref 0 and odd = ref 0 in
    for j = 0 to n - 1 do
      let neg = Array.unsafe_get b j land 1 in
      pat := !pat lor (neg lsl j);
      odd := !odd lxor neg
    done;
    let m = o + 4 + !odd in
    let before = groups.(m) in
    let after = before lor (1 lsl (!pat land ((1 lsl (n - 1)) - 1))) in
    groups.(m) <- after;
    if n >= 2 && after <> before && after = full n then g.xors <- g.xors + 1
  end

(* Insertion-sort the clause's internal literals into [buf], merging
   duplicates; a clause found to have more than [max_width] distinct
   literals is dropped without reading the rest. *)
let add_clause g c =
  let b = g.buf and len = Array.length c in
  let n = ref 0 and i = ref 0 in
  while !n <= max_width && !i < len do
    let l = c.(!i) in
    let l = ((abs l - 1) lsl 1) lor if l < 0 then 1 else 0 in
    let j = ref !n in
    while !j > 0 && b.(!j - 1) > l do
      b.(!j) <- b.(!j - 1);
      decr j
    done;
    if !j > 0 && b.(!j - 1) = l then
      for k = !j to !n - 1 do
        b.(k) <- b.(k + 1)
      done
    else begin
      b.(!j) <- l;
      incr n
    end;
    incr i
  done;
  let n = !n in
  if n <= max_width then begin
    let taut = ref false in
    for j = 0 to n - 2 do
      if b.(j) lxor b.(j + 1) = 1 then taut := true
    done;
    if not !taut then add g b n
  end

let of_flat (fl : Flat.t) =
  let g = create () in
  for i = 0 to Flat.num_clauses fl - 1 do
    add_clause g (Array.sub fl.lits fl.offsets.(i) (Flat.clause_size fl i))
  done;
  g

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* Iterate the complete parity classes whose width passes [keep] as
   (group offset, rhs): a unit clause is the class of width 1. *)
let iter_classes g keep f =
  for r = 0 to g.ngroups - 1 do
    let o = r * stride in
    let k = width g o in
    if keep k then begin
      if g.groups.(o + 4) = full k then f o 1;
      if g.groups.(o + 5) = full k then f o 0
    end
  done

let is_xor k = k >= 2

let xors g =
  let acc = ref [] in
  iter_classes g is_xor (fun o r ->
      acc := (Array.init (width g o) (fun j -> var g o j + 1), r = 1) :: !acc);
  List.rev !acc

(* The clauses over ascending variables [vars] that encode
   [⊕ vars = rhs], minus those the input holds: one per pattern of the
   class that forbids the other parity. *)
let missing_clauses g vars rhs =
  let k = Array.length vars in
  pack g (Array.map (fun v -> v lsl 1) vars) k;
  let e = g.slots.(find g) in
  let present =
    if e = 0 then 0 else g.groups.(record e + 4 + (rhs lxor 1))
  in
  let acc = ref [] in
  for pat = (1 lsl k) - 1 downto 0 do
    if popcount pat land 1 = rhs lxor 1
       && present land (1 lsl (pat land ((1 lsl (k - 1)) - 1))) = 0
    then
      acc :=
        Array.mapi
          (fun i v -> if pat land (1 lsl i) <> 0 then -(v + 1) else v + 1)
          vars
        :: !acc
  done;
  !acc

type outcome = Inconsistent | Derived of int array list

let eliminate g =
  if g.xors < 2 then Derived []
  else begin
    let found = ref [] in
    iter_classes g is_xor (fun o b -> found := (o, b) :: !found);
    (* Columns: the variables of the XORs, ascending. *)
    let cols =
      List.concat_map (fun (o, _) -> List.init (width g o) (var g o)) !found
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let ncols = Array.length cols in
    (* The column of variable [v], -1 when no XOR has it. *)
    let col v =
      let lo = ref 0 and hi = ref (ncols - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cols.(mid) < v then lo := mid + 1 else hi := mid
      done;
      if cols.(!lo) = v then !lo else -1
    in
    (* Rows: the XORs, then the unit clauses over their variables as
       rows of width 1.  A unit over any other variable meets no XOR. *)
    iter_classes g (fun k -> k = 1) (fun o b ->
        if col (var g o 0) >= 0 then found := (o, b) :: !found);
    let found = Array.of_list (List.rev !found) in
    let rows = Array.length found in
    let row_group = Array.map fst found and rhs = Array.map snd found in
    let words = (ncols + 62) / 63 in
    if rows * words > max_matrix_words
       || rows * words * min rows ncols > max_work
    then Derived []
    else begin
      let m = Array.make (rows * words) 0 in
      Array.iteri
        (fun r o ->
          for j = 0 to width g o - 1 do
            let c = col (var g o j) in
            let i = (r * words) + (c / 63) in
            m.(i) <- m.(i) lor (1 lsl (c mod 63))
          done)
        row_group;
      (* Gauss–Jordan: after pivoting on column c, no other row has c. *)
      let piv = ref 0 in
      for c = 0 to ncols - 1 do
        let p = !piv in
        if p < rows then begin
          let wi = c / 63 and bit = 1 lsl (c mod 63) in
          let r = ref p in
          while !r < rows && m.((!r * words) + wi) land bit = 0 do
            incr r
          done;
          if !r < rows then begin
            if !r <> p then begin
              for j = 0 to words - 1 do
                let t = m.((p * words) + j) in
                m.((p * words) + j) <- m.((!r * words) + j);
                m.((!r * words) + j) <- t
              done;
              let t = rhs.(p) in
              rhs.(p) <- rhs.(!r);
              rhs.(!r) <- t
            end;
            for r' = 0 to rows - 1 do
              if r' <> p && m.((r' * words) + wi) land bit <> 0 then begin
                for j = 0 to words - 1 do
                  m.((r' * words) + j) <-
                    m.((r' * words) + j) lxor m.((p * words) + j)
                done;
                rhs.(r') <- rhs.(r') lxor rhs.(p)
              end
            done;
            incr piv
          end
        end
      done;
      (* Rows past the last pivot are zero: one with rhs 1 reads 0 = 1. *)
      let inconsistent = ref false in
      for r = !piv to rows - 1 do
        if rhs.(r) = 1 then inconsistent := true
      done;
      if !inconsistent then Inconsistent
      else begin
        let derived = ref [] in
        for r = 0 to !piv - 1 do
          (* Row r's variables, read until a third shows it is too
             wide to keep. *)
          let vars = ref [] and n = ref 0 in
          let j = ref 0 in
          while !n <= 2 && !j < words do
            let x = ref m.((r * words) + !j) in
            while !x <> 0 && !n <= 2 do
              let low = !x land - !x in
              let c = (!j * 63) + popcount (low - 1) in
              vars := cols.(c) :: !vars;
              incr n;
              x := !x lxor low
            done;
            incr j
          done;
          if !n <= 2 then
            derived :=
              List.rev_append
                (missing_clauses g (Array.of_list (List.rev !vars)) rhs.(r))
                !derived
        done;
        Derived (List.rev !derived)
      end
    end
  end
