type inbox = {
  lock : Mutex.t;
  q : (int array * int) Queue.t;
}

type t = {
  sharing : bool array;
  inboxes : inbox array;
  published : int Atomic.t;
  delivered : int Atomic.t;
  dropped : int Atomic.t;
}

let capacity = 4096

let create ~sharing =
  {
    sharing = Array.copy sharing;
    inboxes =
      Array.init (Array.length sharing) (fun _ ->
          { lock = Mutex.create (); q = Queue.create () });
    published = Atomic.make 0;
    delivered = Atomic.make 0;
    dropped = Atomic.make 0;
  }

let locked inbox f =
  Mutex.lock inbox.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock inbox.lock) f

let publish t ~worker clause lbd =
  if t.sharing.(worker) then begin
    Atomic.incr t.published;
    Array.iteri
      (fun i shares ->
        if i <> worker && shares then begin
          let inbox = t.inboxes.(i) in
          let accepted =
            locked inbox (fun () ->
                if Queue.length inbox.q < capacity then begin
                  (* Fresh copy per receiver: neither the publisher's
                     later mutations (e.g. a buffer reused across
                     exports) nor one importer's can reach another. *)
                  Queue.add (Array.copy clause, lbd) inbox.q;
                  true
                end
                else false)
          in
          if accepted then Atomic.incr t.delivered
          else Atomic.incr t.dropped
        end)
      t.sharing
  end

let drain t ~worker =
  let inbox = t.inboxes.(worker) in
  locked inbox (fun () ->
      let acc = ref [] in
      Queue.iter (fun c -> acc := c :: !acc) inbox.q;
      Queue.clear inbox.q;
      List.rev !acc)

let published t = Atomic.get t.published
let delivered t = Atomic.get t.delivered
let dropped t = Atomic.get t.dropped
