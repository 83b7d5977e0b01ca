(* A min-heap of (level, literal) pairs drives the Huffman-style
   combine.  The implementation keeps per-node levels of the graph
   under construction in a growable array. *)

module Heap = struct
  type t = { mutable data : (int * int) array; mutable size : int }

  let create () = { data = Array.make 16 (0, 0); size = 0 }

  let push h x =
    if h.size >= Array.length h.data then begin
      let d = Array.make (2 * Array.length h.data) (0, 0) in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      && fst h.data.((!i - 1) / 2) > fst h.data.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(p);
      h.data.(p) <- tmp;
      i := p
    done

  let pop h =
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.size && fst h.data.(l) < fst h.data.(!best) then best := l;
      if r < h.size && fst h.data.(r) < fst h.data.(!best) then best := r;
      if !best = !i then continue := false
      else begin
        let tmp = h.data.(!i) in
        h.data.(!i) <- h.data.(!best);
        h.data.(!best) <- tmp;
        i := !best
      end
    done;
    top
end

let run g =
  let n = Aig.Graph.num_nodes g in
  let refs = Aig.Graph.ref_counts g in
  (* A node is expandable (tree-interior) when it is an AND referenced
     exactly once and that single reference is non-complemented; such
     nodes dissolve into their parent's operand list. *)
  let complemented_use = Array.make n false in
  Aig.Graph.iter_ands g (fun id ->
      let note l =
        if Aig.Graph.is_compl l then
          complemented_use.(Aig.Graph.node_of_lit l) <- true
      in
      note (Aig.Graph.fanin0 g id);
      note (Aig.Graph.fanin1 g id));
  Array.iter
    (fun l ->
      if Aig.Graph.is_compl l then
        complemented_use.(Aig.Graph.node_of_lit l) <- true)
    (Aig.Graph.pos g);
  let po_root = Array.make n false in
  Array.iter
    (fun l -> po_root.(Aig.Graph.node_of_lit l) <- true)
    (Aig.Graph.pos g);
  let interior id =
    Aig.Graph.is_and g id && refs.(id) = 1
    && (not complemented_use.(id))
    && not po_root.(id)
  in
  Pass.rebuild g
    ~select:(fun id -> not (interior id))
    (fun p ->
      (* Levels in the new graph. *)
      let levels = ref (Array.make 1024 0) in
      let level_of l =
        let id = Aig.Graph.node_of_lit l in
        if id < Array.length !levels then !levels.(id) else 0
      in
      let set_level id v =
        if id >= Array.length !levels then begin
          let d = Array.make (max (2 * Array.length !levels) (id + 1)) 0 in
          Array.blit !levels 0 d 0 (Array.length !levels);
          levels := d
        end;
        !levels.(id) <- v
      in
      let and_tracked a b =
        let l = Aig.Graph.and_ p.Pass.dst a b in
        let id = Aig.Graph.node_of_lit l in
        if Aig.Graph.is_and p.Pass.dst id then
          set_level id (1 + max (level_of a) (level_of b));
        l
      in
      (* Operands of the maximal AND tree rooted at id (old graph). *)
      let operands id =
        let acc = ref [] in
        let rec gather l =
          let child = Aig.Graph.node_of_lit l in
          if (not (Aig.Graph.is_compl l)) && interior child then begin
            gather (Aig.Graph.fanin0 g child);
            gather (Aig.Graph.fanin1 g child)
          end
          else acc := l :: !acc
        in
        gather (Aig.Graph.fanin0 g id);
        gather (Aig.Graph.fanin1 g id);
        !acc
      in
      let lit = Pass.lit p in
      fun id ->
        let ops = List.map lit (operands id) in
        (* Dedup; a complementary pair collapses to constant 0. *)
        let ops = List.sort_uniq compare ops in
        let contradictory =
          let rec chk = function
            | a :: (b :: _ as rest) -> (a lxor b) = 1 || chk rest
            | _ -> false
          in
          chk ops
        in
        if contradictory then Aig.Graph.const_false
        else begin
          let h = Heap.create () in
          List.iter (fun l -> Heap.push h (level_of l, l)) ops;
          let rec combine () =
            if h.Heap.size = 1 then snd (Heap.pop h)
            else begin
              let _, a = Heap.pop h in
              let _, b = Heap.pop h in
              let l = and_tracked a b in
              Heap.push h (level_of l, l);
              combine ()
            end
          in
          if h.Heap.size = 0 then Aig.Graph.const_true else combine ()
        end)
