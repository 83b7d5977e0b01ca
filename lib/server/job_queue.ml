(* Binary max-heap over (priority, -seq): higher priority first, FIFO
   within equal priorities.  The heap array is allocated at capacity
   once; push/pop are O(log n) under one mutex. *)

type 'a cell = { prio : int; seq : int; item : 'a }

type 'a t = {
  cap : int;  (* admission bound for [push]; [push_force] may exceed it *)
  mutable heap : 'a cell option array;
  mutable size : int;
  mutable next_seq : int;
  mutable closed : bool;
  m : Mutex.t;
  c : Condition.t;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Job_queue.create: capacity < 1";
  {
    cap = capacity;
    heap = Array.make capacity None;
    size = 0;
    next_seq = 0;
    closed = false;
    m = Mutex.create ();
    c = Condition.create ();
  }

let capacity t = t.cap

let length t =
  Mutex.lock t.m;
  let n = t.size in
  Mutex.unlock t.m;
  n

(* [a] comes out before [b]? *)
let before a b = a.prio > b.prio || (a.prio = b.prio && a.seq < b.seq)

let get h i = match h.(i) with Some c -> c | None -> assert false

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (get h i) (get h parent) then begin
      let tmp = h.(i) in
      h.(i) <- h.(parent);
      h.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < size && before (get h l) (get h !best) then best := l;
  if r < size && before (get h r) (get h !best) then best := r;
  if !best <> i then begin
    let tmp = h.(i) in
    h.(i) <- h.(!best);
    h.(!best) <- tmp;
    sift_down h size !best
  end

let push_cell t ~priority item =
  if t.size >= Array.length t.heap then begin
    let grown = Array.make (2 * Array.length t.heap) None in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.heap.(t.size) <- Some { prio = priority; seq = t.next_seq; item };
  t.next_seq <- t.next_seq + 1;
  sift_up t.heap t.size;
  t.size <- t.size + 1;
  Condition.signal t.c

let push t ~priority item =
  Mutex.lock t.m;
  let ok = (not t.closed) && t.size < t.cap in
  if ok then push_cell t ~priority item;
  Mutex.unlock t.m;
  ok

(* Scheduling tokens (one per live session) must never bounce off the
   admission bound — a bounced token would strand the session's
   pending ops.  Their population is bounded by the session table, not
   by [cap], so the heap grows past [cap] when needed. *)
let push_force t ~priority item =
  Mutex.lock t.m;
  let ok = not t.closed in
  if ok then push_cell t ~priority item;
  Mutex.unlock t.m;
  ok

let pop t =
  Mutex.lock t.m;
  while t.size = 0 && not t.closed do
    Condition.wait t.c t.m
  done;
  let out =
    if t.size = 0 then None (* closed and drained *)
    else begin
      let top = get t.heap 0 in
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size);
      t.heap.(t.size) <- None;
      if t.size > 0 then sift_down t.heap t.size 0;
      Some top.item
    end
  in
  Mutex.unlock t.m;
  out

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m
