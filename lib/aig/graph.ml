type lit = int

let lit_of_node id compl = (id lsl 1) lor (if compl then 1 else 0)
let node_of_lit l = l lsr 1
let is_compl l = l land 1 = 1
let lit_not l = l lxor 1
let lit_not_cond l c = if c then l lxor 1 else l
let const_false = 0
let const_true = 1

type t = {
  mutable fan0 : int array;
  mutable fan1 : int array;
  mutable n : int; (* nodes used, including constant and PIs *)
  npis : int;
  mutable outs : int array;
  mutable nouts : int;
  mutable strash : int array;
      (* open-addressed, power-of-two size: AND ids, 0 marks an empty
         slot (node 0 is the constant, never an AND); at most half
         full *)
}

(* Home slot of an AND with fanins [a <= b]. *)
let home mask a b =
  let h = ((a * 0x3C6EF372FE94F82B) + b) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The slot holding the AND with fanins [a, b], or the empty slot that
   ends its probe sequence. *)
let rec probe g mask a b i =
  let id = g.strash.(i) in
  if id = 0 || (g.fan0.(id) = a && g.fan1.(id) = b) then i
  else probe g mask a b ((i + 1) land mask)

let rehash g size =
  let t = Array.make size 0 and mask = size - 1 in
  g.strash <- t;
  for id = g.npis + 1 to g.n - 1 do
    let a = g.fan0.(id) and b = g.fan1.(id) in
    t.(probe g mask a b (home mask a b)) <- id
  done

let create ~num_pis =
  if num_pis < 0 then invalid_arg "Graph.create: negative num_pis";
  let cap = max 16 (2 * (num_pis + 1)) in
  {
    fan0 = Array.make cap 0;
    fan1 = Array.make cap 0;
    n = num_pis + 1;
    npis = num_pis;
    outs = Array.make 4 0;
    nouts = 0;
    strash = Array.make 16 0;
  }

let num_pis g = g.npis
let num_pos g = g.nouts
let num_nodes g = g.n
let num_ands g = g.n - g.npis - 1

let pi g i =
  if i < 0 || i >= g.npis then invalid_arg "Graph.pi: index out of range";
  lit_of_node (i + 1) false

let is_pi g id = id >= 1 && id <= g.npis
let is_and g id = id > g.npis && id < g.n

let fanin0 g id =
  if not (is_and g id) then invalid_arg "Graph.fanin0: not an AND node";
  g.fan0.(id)

let fanin1 g id =
  if not (is_and g id) then invalid_arg "Graph.fanin1: not an AND node";
  g.fan1.(id)

let po g i =
  if i < 0 || i >= g.nouts then invalid_arg "Graph.po: index out of range";
  g.outs.(i)

let pos g = Array.sub g.outs 0 g.nouts

let grow g =
  let cap = Array.length g.fan0 in
  if g.n >= cap then begin
    let cap' = 2 * cap in
    let f0 = Array.make cap' 0 and f1 = Array.make cap' 0 in
    Array.blit g.fan0 0 f0 0 g.n;
    Array.blit g.fan1 0 f1 0 g.n;
    g.fan0 <- f0;
    g.fan1 <- f1
  end

let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  assert (b < 2 * g.n);
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = lit_not b then const_false
  else
    let mask = Array.length g.strash - 1 in
    let i = probe g mask a b (home mask a b) in
    let id = g.strash.(i) in
    if id <> 0 then lit_of_node id false
    else begin
      grow g;
      let id = g.n in
      g.fan0.(id) <- a;
      g.fan1.(id) <- b;
      g.n <- id + 1;
      g.strash.(i) <- id;
      if 2 * (id - g.npis) > mask + 1 then rehash g (2 * (mask + 1));
      lit_of_node id false
    end

let or_ g a b = lit_not (and_ g (lit_not a) (lit_not b))

let xor_ g a b =
  (* a xor b = (a or b) and not (a and b) *)
  and_ g (or_ g a b) (lit_not (and_ g a b))

let mux_ g sel t e = or_ g (and_ g sel t) (and_ g (lit_not sel) e)

(* Balanced reduction keeps depth logarithmic for wide gates. *)
let rec reduce_balanced g op = function
  | [] -> invalid_arg "reduce_balanced: empty"
  | [ x ] -> x
  | xs ->
    let rec pair acc = function
      | [] -> List.rev acc
      | [ x ] -> List.rev (x :: acc)
      | x :: y :: rest -> pair (op g x y :: acc) rest
    in
    reduce_balanced g op (pair [] xs)

let and_list g = function
  | [] -> const_true
  | xs -> reduce_balanced g and_ xs

let or_list g = function
  | [] -> const_false
  | xs -> reduce_balanced g or_ xs

let add_po g l =
  assert (l < 2 * g.n);
  if g.nouts >= Array.length g.outs then begin
    let outs' = Array.make (2 * Array.length g.outs) 0 in
    Array.blit g.outs 0 outs' 0 g.nouts;
    g.outs <- outs'
  end;
  g.outs.(g.nouts) <- l;
  g.nouts <- g.nouts + 1

let set_po g i l =
  if i < 0 || i >= g.nouts then invalid_arg "Graph.set_po: index out of range";
  assert (l < 2 * g.n);
  g.outs.(i) <- l

let iter_ands g f =
  for id = g.npis + 1 to g.n - 1 do
    f id
  done

let levels g =
  let lv = Array.make g.n 0 in
  iter_ands g (fun id ->
      let l0 = lv.(node_of_lit g.fan0.(id))
      and l1 = lv.(node_of_lit g.fan1.(id)) in
      lv.(id) <- 1 + max l0 l1);
  lv

let depth g =
  let lv = levels g in
  let d = ref 0 in
  for i = 0 to g.nouts - 1 do
    d := max !d lv.(node_of_lit g.outs.(i))
  done;
  !d

let ref_counts g =
  let rc = Array.make g.n 0 in
  iter_ands g (fun id ->
      rc.(node_of_lit g.fan0.(id)) <- rc.(node_of_lit g.fan0.(id)) + 1;
      rc.(node_of_lit g.fan1.(id)) <- rc.(node_of_lit g.fan1.(id)) + 1);
  for i = 0 to g.nouts - 1 do
    let id = node_of_lit g.outs.(i) in
    rc.(id) <- rc.(id) + 1
  done;
  rc

let num_inverted_edges g =
  let count = ref 0 in
  iter_ands g (fun id ->
      if is_compl g.fan0.(id) then incr count;
      if is_compl g.fan1.(id) then incr count);
  for i = 0 to g.nouts - 1 do
    if is_compl g.outs.(i) then incr count
  done;
  !count

type mark = int

let mark g = g.n
let nodes_since g m = g.n - m

let rollback g m =
  if m < g.npis + 1 || m > g.n then invalid_arg "Graph.rollback: bad mark";
  (* Slots are emptied newest node first.  An entry's probe run only
     crosses slots that older entries held when it was inserted (a
     rehash reinserts by id, too), so no entry left in the table is
     reached through the slot of the node being removed: emptying it
     is exact, with no tombstone or backward shift. *)
  let mask = Array.length g.strash - 1 in
  for id = g.n - 1 downto m do
    let a = g.fan0.(id) and b = g.fan1.(id) in
    g.strash.(probe g mask a b (home mask a b)) <- 0
  done;
  g.n <- m

let copy g =
  {
    fan0 = Array.copy g.fan0;
    fan1 = Array.copy g.fan1;
    n = g.n;
    npis = g.npis;
    outs = Array.copy g.outs;
    nouts = g.nouts;
    strash = Array.copy g.strash;
  }

(* Explicit stack: constraint chains from CNF recovery can be tens of
   thousands of levels deep.  A node is marked when pushed, so the stack
   holds each node at most once. *)
let reachable g =
  let seen = Array.make g.n false in
  let stack = ref [] in
  let push id =
    if not seen.(id) then begin
      seen.(id) <- true;
      stack := id :: !stack
    end
  in
  for i = 0 to g.nouts - 1 do
    push (node_of_lit g.outs.(i))
  done;
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      if is_and g id then begin
        push (node_of_lit g.fan0.(id));
        push (node_of_lit g.fan1.(id))
      end;
      drain ()
  in
  drain ();
  seen

let cleanup g =
  let keep = reachable g in
  let g' = create ~num_pis:g.npis in
  let map = Array.make g.n const_false in
  for i = 1 to g.npis do
    map.(i) <- pi g' (i - 1)
  done;
  let map_lit l = lit_not_cond map.(node_of_lit l) (is_compl l) in
  iter_ands g (fun id ->
      if keep.(id) then
        map.(id) <- and_ g' (map_lit g.fan0.(id)) (map_lit g.fan1.(id)));
  for i = 0 to g.nouts - 1 do
    add_po g' (map_lit g.outs.(i))
  done;
  g'

let equal_structure a b =
  a.npis = b.npis && a.n = b.n && a.nouts = b.nouts
  && (let ok = ref true in
      iter_ands a (fun id ->
          if a.fan0.(id) <> b.fan0.(id) || a.fan1.(id) <> b.fan1.(id) then
            ok := false);
      !ok)
  &&
  let ok = ref true in
  for i = 0 to a.nouts - 1 do
    if a.outs.(i) <> b.outs.(i) then ok := false
  done;
  !ok

let pp_stats ppf g =
  Format.fprintf ppf "pis=%d pos=%d ands=%d depth=%d" (num_pis g) (num_pos g)
    (num_ands g) (depth g)
