type cut = { leaves : int array; tt : int64 }

let trivial n = { leaves = [| n |]; tt = 2L (* f = x0 *) }

let cut_tt c = Tt.of_int64 (Array.length c.leaves) c.tt

(* Masks exchanging variables j and j + 1 within one word: the kept
   bits, the bits moving up and the bits moving down by 2^j. *)
let swap_masks =
  [|
    (0x9999999999999999L, 0x2222222222222222L, 0x4444444444444444L);
    (0xC3C3C3C3C3C3C3C3L, 0x0C0C0C0C0C0C0C0CL, 0x3030303030303030L);
    (0xF00FF00FF00FF00FL, 0x00F000F000F000F0L, 0x0F000F000F000F00L);
    (0xFF0000FFFF0000FFL, 0x0000FF000000FF00L, 0x00FF000000FF0000L);
    (0xFFFF00000000FFFFL, 0x00000000FFFF0000L, 0x0000FFFF00000000L);
  |]

let swap_adjacent t j =
  let keep, up, down = swap_masks.(j) in
  let s = 1 lsl j in
  Int64.logor (Int64.logand t keep)
    (Int64.logor
       (Int64.shift_left (Int64.logand t up) s)
       (Int64.shift_right_logical (Int64.logand t down) s))

let expand_tt tt leaves union =
  let l = Array.length leaves and k = Array.length union in
  (* Make the table independent of variables l..k-1, then move each
     leaf's variable, highest first, up to its position in the union
     through the don't-care variables above it. *)
  let t = ref (Int64.logand tt (Tt.word_mask l)) in
  for v = l to k - 1 do
    t := Int64.logor !t (Int64.shift_left !t (1 lsl v))
  done;
  let p = ref (k - 1) in
  for i = l - 1 downto 0 do
    while union.(!p) <> leaves.(i) do decr p done;
    for j = i to !p - 1 do
      t := swap_adjacent !t j
    done;
    decr p
  done;
  !t

let union_sorted a b k =
  let la = Array.length a and lb = Array.length b in
  let buf = Array.make (la + lb) 0 in
  let rec loop i j n =
    if n > k then None
    else if i >= la && j >= lb then Some (Array.sub buf 0 n)
    else if j >= lb || (i < la && a.(i) < b.(j)) then begin
      buf.(n) <- a.(i);
      loop (i + 1) j (n + 1)
    end
    else if i >= la || b.(j) < a.(i) then begin
      buf.(n) <- b.(j);
      loop i (j + 1) (n + 1)
    end
    else begin
      buf.(n) <- a.(i);
      loop (i + 1) (j + 1) (n + 1)
    end
  in
  loop 0 0 0

let merge ~k ca ca_compl cb cb_compl =
  match union_sorted ca.leaves cb.leaves k with
  | None -> None
  | Some union ->
    let kk = Array.length union in
    let ta = expand_tt ca.tt ca.leaves union in
    let tb = expand_tt cb.tt cb.leaves union in
    let ta = if ca_compl then Int64.logxor ta (Tt.word_mask kk) else ta in
    let tb = if cb_compl then Int64.logxor tb (Tt.word_mask kk) else tb in
    Some { leaves = union; tt = Int64.logand ta tb }

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

let enumerate g ~k ~limit =
  if k < 2 || k > 6 then invalid_arg "Cut.enumerate: k must be in 2..6";
  let sets = Array.make (Graph.num_nodes g) [] in
  for i = 0 to Graph.num_pis g - 1 do
    sets.(i + 1) <- [ trivial (i + 1) ]
  done;
  Graph.iter_ands g (fun id ->
      let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
      let n0 = Graph.node_of_lit f0 and n1 = Graph.node_of_lit f1 in
      let c0 = Graph.is_compl f0 and c1 = Graph.is_compl f1 in
      let merged = ref [] in
      List.iter
        (fun ca ->
          List.iter
            (fun cb ->
              match merge ~k ca c0 cb c1 with
              | Some c -> merged := c :: !merged
              | None -> ())
            sets.(n1))
        sets.(n0);
      (* Remove duplicates and dominated cuts, keep the smallest. *)
      let cmp a b =
        let d = compare (Array.length a.leaves) (Array.length b.leaves) in
        if d <> 0 then d else compare a.leaves b.leaves
      in
      let cs = List.sort_uniq cmp !merged in
      let kept =
        List.fold_left
          (fun acc c ->
            if List.exists (fun c' -> dominates c' c) acc then acc
            else c :: acc)
          [] cs
        |> List.rev
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      sets.(id) <- take limit kept @ [ trivial id ]);
  sets

let cuts sets id = sets.(id)
