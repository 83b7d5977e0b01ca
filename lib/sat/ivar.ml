(* The state is one atomic: [fill] and [upon] are compare-and-set
   loops, so neither takes a lock and a cell is one small allocation.
   Only a blocking [await] pays for a mutex and a condition, its own,
   woken through a callback like any other. *)

type 'a state =
  | Empty of ('a -> unit) list  (* callbacks, newest first *)
  | Full of 'a

type 'a t = 'a state Atomic.t

let create () = Atomic.make (Empty [])

let rec fill t v =
  match Atomic.get t with
  | Full _ -> false
  | Empty ks as s ->
    if Atomic.compare_and_set t s (Full v) then begin
      List.iter (fun k -> try k v with _ -> ()) (List.rev ks);
      true
    end
    else fill t v

let peek t = match Atomic.get t with Full v -> Some v | Empty _ -> None

let rec upon t k =
  match Atomic.get t with
  | Full v -> k v
  | Empty ks as s ->
    if not (Atomic.compare_and_set t s (Empty (k :: ks))) then upon t k

let await t =
  match Atomic.get t with
  | Full v -> v
  | Empty _ ->
    let m = Mutex.create () and c = Condition.create () in
    let got = ref None in
    upon t (fun v ->
        Mutex.protect m (fun () ->
            got := Some v;
            Condition.signal c));
    Mutex.protect m (fun () ->
        let rec wait () =
          match !got with
          | Some v -> v
          | None ->
            Condition.wait c m;
            wait ()
        in
        wait ())
