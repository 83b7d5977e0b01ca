type t = bool Atomic.t

let create () = Atomic.make false
let set t = Atomic.set t true
let clear t = Atomic.set t false
let is_set t = Atomic.get t

exception Stopped

let scope : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let within t f =
  let outer = Domain.DLS.get scope in
  Domain.DLS.set scope (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope outer) f

let current () = Domain.DLS.get scope

let poll () =
  match Domain.DLS.get scope with
  | Some t when Atomic.get t -> raise Stopped
  | _ -> ()
