(* Simulated dereferencing on a scratch delta of the reference counts.
   The scratch belongs to the domain: [delta.(n)] counts the
   dereferences of node [n] in the current walk and is valid only while
   [seen.(n)] holds the walk's stamp, and [leaf.(n)] holds the stamp of
   the walk whose cut has [n] as a leaf.  Each walk takes a new stamp,
   so nothing is cleared between walks. *)

type scratch = {
  mutable stamp : int;
  mutable seen : int array;
  mutable delta : int array;
  mutable leaf : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { stamp = 0; seen = [||]; delta = [||]; leaf = [||] })

let scratch g =
  let s = Domain.DLS.get scratch_key in
  let n = Aig.Graph.num_nodes g in
  if Array.length s.seen < n then begin
    let cap = max n (2 * Array.length s.seen) in
    s.seen <- Array.make cap 0;
    s.delta <- Array.make cap 0;
    s.leaf <- Array.make cap 0
  end;
  s.stamp <- s.stamp + 1;
  s

(* Count the ANDs [nid] owns above the cut: a fanin whose dereference
   count reaches its reference count joins the cone. *)
let rec deref s g refs nid =
  let n0 = fanin s g refs (Aig.Graph.fanin0 g nid) in
  let n1 = fanin s g refs (Aig.Graph.fanin1 g nid) in
  1 + n0 + n1

and fanin s g refs l =
  let fid = Aig.Graph.node_of_lit l in
  if Aig.Graph.is_and g fid && s.leaf.(fid) <> s.stamp then begin
    let d = if s.seen.(fid) = s.stamp then s.delta.(fid) + 1 else 1 in
    s.seen.(fid) <- s.stamp;
    s.delta.(fid) <- d;
    if refs.(fid) = d then deref s g refs fid else 0
  end
  else 0

let size_above_cut g refs id leaves =
  let s = scratch g in
  Array.iter (fun l -> s.leaf.(l) <- s.stamp) leaves;
  deref s g refs id
