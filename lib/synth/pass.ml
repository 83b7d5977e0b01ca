type t = {
  src : Aig.Graph.t;
  dst : Aig.Graph.t;
  map : Aig.Graph.lit array;
}

let lit p l =
  Aig.Graph.lit_not_cond p.map.(Aig.Graph.node_of_lit l) (Aig.Graph.is_compl l)

let copy p id =
  Aig.Graph.and_ p.dst
    (lit p (Aig.Graph.fanin0 p.src id))
    (lit p (Aig.Graph.fanin1 p.src id))

let rebuild ?(select = fun _ -> true) g visit =
  let npis = Aig.Graph.num_pis g in
  let p =
    {
      src = g;
      dst = Aig.Graph.create ~num_pis:npis;
      map = Array.make (Aig.Graph.num_nodes g) Aig.Graph.const_false;
    }
  in
  for i = 1 to npis do
    p.map.(i) <- Aig.Graph.pi p.dst (i - 1)
  done;
  let visit = visit p in
  Aig.Graph.iter_ands g (fun id ->
      if select id then begin
        Aig.Interrupt.poll ();
        p.map.(id) <- visit id
      end);
  for i = 0 to Aig.Graph.num_pos g - 1 do
    Aig.Graph.add_po p.dst (lit p (Aig.Graph.po g i))
  done;
  Aig.Graph.cleanup p.dst
