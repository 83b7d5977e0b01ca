type cut = { leaves : int array; tt : int64 }

let trivial n = { leaves = [| n |]; tt = 2L (* f = x0 *) }

let cut_tt c = Tt.of_int64 (Array.length c.leaves) c.tt

(* Masks exchanging variables j and j + 1 within one word: the kept
   bits, the bits moving up and the bits moving down by 2^j. *)
let swap_keep =
  [| 0x9999999999999999L; 0xC3C3C3C3C3C3C3C3L; 0xF00FF00FF00FF00FL;
     0xFF0000FFFF0000FFL; 0xFFFF00000000FFFFL |]

let swap_up =
  [| 0x2222222222222222L; 0x0C0C0C0C0C0C0C0CL; 0x00F000F000F000F0L;
     0x0000FF000000FF00L; 0x00000000FFFF0000L |]

let swap_down =
  [| 0x4444444444444444L; 0x3030303030303030L; 0x0F000F000F000F00L;
     0x00FF000000FF0000L; 0x0000FFFF00000000L |]

let word_masks = Array.init 7 Tt.word_mask

(* One function with no calls, so the table stays an unboxed local. *)
let expand_tt tt (leaves : int array) (union : int array) =
  let l = Array.length leaves and k = Array.length union in
  (* Make the table independent of variables l..k-1, then move each
     leaf's variable, highest first, up to its position in the union
     through the don't-care variables above it. *)
  let t = ref (Int64.logand tt word_masks.(l)) in
  for v = l to k - 1 do
    t := Int64.logor !t (Int64.shift_left !t (1 lsl v))
  done;
  let p = ref (k - 1) in
  for i = l - 1 downto 0 do
    while union.(!p) <> leaves.(i) do decr p done;
    for j = i to !p - 1 do
      let x = !t and s = 1 lsl j in
      t :=
        Int64.logor
          (Int64.logand x swap_keep.(j))
          (Int64.logor
             (Int64.shift_left (Int64.logand x swap_up.(j)) s)
             (Int64.shift_right_logical (Int64.logand x swap_down.(j)) s))
    done;
    decr p
  done;
  !t

let dominates a b =
  let la = Array.length a.leaves and lb = Array.length b.leaves in
  la <= lb
  &&
  let rec subset i j =
    if i >= la then true
    else if j >= lb then false
    else if a.leaves.(i) = b.leaves.(j) then subset (i + 1) (j + 1)
    else if a.leaves.(i) > b.leaves.(j) then subset i (j + 1)
    else false
  in
  subset 0 0

type sets = cut list array

(* Merges of a node's fanin cuts are staged in a flat buffer: candidate
   [c] has [len.(c)] ascending leaves from [buf.(c * k)] and came from
   fanin cuts [from0.(c)] and [from1.(c)].  Only the cuts that survive
   the ordering, the dominance filter and the limit become records, and
   only they get a truth table. *)
type stage = {
  buf : int array;
  len : int array;
  from0 : cut array;
  from1 : cut array;
  order : int array;
}

(* Leaf union of [a] (from [i]) and [b] (from [j]) into [buf] from
   [at + n]; its size, or [k + 1] once it exceeds [k].  The helpers
   below take every operand as an argument, so no closure is allocated
   per fanin-cut pair. *)
let rec union_into (buf : int array) at k (a : int array) (b : int array) i j
    n =
  let la = Array.length a and lb = Array.length b in
  if n > k then n
  else if i >= la && j >= lb then n
  else if j >= lb || (i < la && a.(i) < b.(j)) then begin
    if n < k then buf.(at + n) <- a.(i);
    union_into buf at k a b (i + 1) j (n + 1)
  end
  else if i >= la || b.(j) < a.(i) then begin
    if n < k then buf.(at + n) <- b.(j);
    union_into buf at k a b i (j + 1) (n + 1)
  end
  else begin
    if n < k then buf.(at + n) <- a.(i);
    union_into buf at k a b (i + 1) (j + 1) (n + 1)
  end

let rec compare_leaves (buf : int array) c d n i =
  if i >= n then 0
  else
    let x = buf.(c + i) and y = buf.(d + i) in
    if x <> y then compare x y else compare_leaves buf c d n (i + 1)

(* Smaller first, then lexicographic by leaves. *)
let compare_staged st k c d =
  let lc = st.len.(c) and ld = st.len.(d) in
  if lc <> ld then compare lc ld
  else compare_leaves st.buf (c * k) (d * k) lc 0

let rec subset_leaves (buf : int array) c lc d ld i j =
  if i >= lc then true
  else if j >= ld then false
  else
    let x = buf.(c + i) and y = buf.(d + j) in
    if x = y then subset_leaves buf c lc d ld (i + 1) (j + 1)
    else x > y && subset_leaves buf c lc d ld i (j + 1)

(* Whether staged [c]'s leaves are a subset of staged [d]'s. *)
let staged_subset st k c d =
  let lc = st.len.(c) and ld = st.len.(d) in
  lc <= ld && subset_leaves st.buf (c * k) lc (d * k) ld 0 0

(* Whether one of [order.(0 .. kept - 1)] dominates staged [c]. *)
let rec dominated st k kept c j =
  j < kept
  && (staged_subset st k st.order.(j) c || dominated st k kept c (j + 1))

let enumerate g ~k ~limit =
  if k < 2 || k > 6 then invalid_arg "Cut.enumerate: k must be in 2..6";
  let sets = Array.make (Graph.num_nodes g) [] in
  for i = 0 to Graph.num_pis g - 1 do
    sets.(i + 1) <- [ trivial (i + 1) ]
  done;
  let most = (limit + 1) * (limit + 1) in
  let st =
    {
      buf = Array.make (most * k) 0;
      len = Array.make most 0;
      from0 = Array.make most (trivial 0);
      from1 = Array.make most (trivial 0);
      order = Array.make most 0;
    }
  in
  Graph.iter_ands g (fun id ->
      Interrupt.poll ();
      let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
      let n0 = Graph.node_of_lit f0 and n1 = Graph.node_of_lit f1 in
      let c0 = Graph.is_compl f0 and c1 = Graph.is_compl f1 in
      let nc = ref 0 in
      let rec pairs ca = function
        | [] -> ()
        | cb :: rest ->
          let c = !nc in
          let n = union_into st.buf (c * k) k ca.leaves cb.leaves 0 0 0 in
          if n <= k then begin
            st.len.(c) <- n;
            st.from0.(c) <- ca;
            st.from1.(c) <- cb;
            incr nc
          end;
          pairs ca rest
      in
      List.iter (fun ca -> pairs ca sets.(n1)) sets.(n0);
      (* Insertion sort of the candidates. *)
      let order = st.order in
      for c = 0 to !nc - 1 do
        let j = ref (c - 1) in
        while !j >= 0 && compare_staged st k order.(!j) c > 0 do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- c
      done;
      (* Keep, smallest first, up to [limit] cuts no kept cut dominates;
         a duplicate is dominated by its first copy.  [order.(0 ..
         kept - 1)] collects them. *)
      let kept = ref 0 in
      for i = 0 to !nc - 1 do
        let c = order.(i) in
        if !kept < limit && not (dominated st k !kept c 0) then begin
          order.(!kept) <- c;
          incr kept
        end
      done;
      let cuts = ref [ trivial id ] in
      for i = !kept - 1 downto 0 do
        let c = order.(i) in
        let n = st.len.(c) in
        let union = Array.sub st.buf (c * k) n in
        let ca = st.from0.(c) and cb = st.from1.(c) in
        let ta = expand_tt ca.tt ca.leaves union in
        let tb = expand_tt cb.tt cb.leaves union in
        let ta = if c0 then Int64.logxor ta word_masks.(n) else ta in
        let tb = if c1 then Int64.logxor tb word_masks.(n) else tb in
        cuts := { leaves = union; tt = Int64.logand ta tb } :: !cuts
      done;
      sets.(id) <- !cuts);
  sets

let cuts sets id = sets.(id)
