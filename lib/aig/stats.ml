type snapshot = {
  area : int;
  depth : int;
  wires : int;
  ands : int;
  nots : int;
  pis : int;
  balance : float;
}

let balance_ratio g =
  let lv = Graph.levels g in
  let total = ref 0.0 and count = ref 0 in
  Graph.iter_ands g (fun id ->
      let d0 = lv.(Graph.node_of_lit (Graph.fanin0 g id))
      and d1 = lv.(Graph.node_of_lit (Graph.fanin1 g id)) in
      let m = max d0 d1 in
      if m > 0 then
        total := !total +. (float_of_int (abs (d0 - d1)) /. float_of_int m);
      incr count);
  if !count = 0 then 0.0 else !total /. float_of_int !count

let snapshot g =
  {
    area = Graph.num_ands g;
    depth = Graph.depth g;
    wires = (2 * Graph.num_ands g) + Graph.num_pos g;
    ands = Graph.num_ands g;
    nots = Graph.num_inverted_edges g;
    pis = Graph.num_pis g;
    balance = balance_ratio g;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let features ~initial g =
  let s = snapshot g in
  let total_gates = s.ands + s.nots + s.pis in
  [|
    ratio s.area initial.area;
    ratio s.depth initial.depth;
    ratio s.wires initial.wires;
    ratio s.ands total_gates;
    ratio s.nots total_gates;
    s.balance;
  |]
