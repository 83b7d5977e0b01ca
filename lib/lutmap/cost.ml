type t = Aig.Tt.t -> int

let conventional _ = 1

(* The memo is a process-wide table shared by every portfolio worker
   domain mapping concurrently; the mutex only covers the lookup and
   the insertion, never the (pure) cost computation itself. *)
let memo : (int * int, int) Hashtbl.t = Hashtbl.create 4096
let memo_lock = Mutex.create ()

let branching_raw f =
  List.length (Aig.Isop.compute f)
  + List.length (Aig.Isop.compute (Aig.Tt.not_ f))

let branching f =
  let n = Aig.Tt.num_vars f in
  if n <= 6 then begin
    let key = (n, Aig.Tt.to_int f) in
    let cached =
      Mutex.lock memo_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock memo_lock)
        (fun () -> Hashtbl.find_opt memo key)
    in
    match cached with
    | Some c -> c
    | None ->
      let c = branching_raw f in
      Mutex.lock memo_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock memo_lock)
        (fun () -> if not (Hashtbl.mem memo key) then Hashtbl.add memo key c);
      c
  end
  else branching_raw f

let branching_of_int64 ~nvars bits =
  branching (Aig.Tt.of_int64 nvars bits)

let table_for_arity n =
  if n > 4 then invalid_arg "Cost.table_for_arity: arity above 4";
  List.map
    (fun f -> (Aig.Tt.to_int f, branching f))
    (Aig.Npn.all_class_representatives n)
