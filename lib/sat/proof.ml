type step = Add of int array | Delete of int array

type t = {
  mutable rev_steps : step list;
  mutable count : int;
  mutable sealed : bool;
  record_deletions : bool;
  lock : Mutex.t;
}

let create ?(record_deletions = true) () =
  { rev_steps = []; count = 0; sealed = false; record_deletions;
    lock = Mutex.create () }

let locked p f =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) f

let add p c =
  locked p (fun () ->
      if not p.sealed then begin
        p.rev_steps <- Add (Array.copy c) :: p.rev_steps;
        p.count <- p.count + 1;
        if Array.length c = 0 then p.sealed <- true
      end)

let delete p c =
  locked p (fun () ->
      if p.record_deletions && not p.sealed then begin
        p.rev_steps <- Delete (Array.copy c) :: p.rev_steps;
        p.count <- p.count + 1
      end)

let steps p = locked p (fun () -> List.rev p.rev_steps)
let num_steps p = locked p (fun () -> p.count)
let sealed p = locked p (fun () -> p.sealed)

let replay ~into p =
  List.iter
    (function Add c -> add into c | Delete c -> delete into c)
    (steps p)

let to_string p =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      let lits =
        match s with
        | Add c -> c
        | Delete c ->
          Buffer.add_string buf "d ";
          c
      in
      Array.iter
        (fun l ->
          Buffer.add_string buf (string_of_int l);
          Buffer.add_char buf ' ')
        lits;
      Buffer.add_string buf "0\n")
    (steps p);
  Buffer.contents buf

(* Single-pass cursor parser (same approach as {!Cnf.Dimacs}): literals
   are decoded straight out of the buffer, one growable scratch array
   holds the clause being read, and the only transient allocations are
   the clause arrays themselves. *)
let of_string s =
  let p = create () in
  let len = String.length s in
  let pos = ref 0 in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let buf = ref (Array.make 16 0) in
  while !pos < len do
    let start = !pos in
    let eol = ref start in
    while !eol < len && String.unsafe_get s !eol <> '\n' do
      incr eol
    done;
    pos := !eol + 1;
    let a = ref start and b = ref !eol in
    while !a < !b && is_ws s.[!a] do
      incr a
    done;
    while !b > !a && is_ws s.[!b - 1] do
      decr b
    done;
    if !a < !b then begin
      let deletion = s.[!a] = 'd' && !b - !a > 1 in
      if deletion then incr a;
      let n = ref 0 in
      let i = ref !a in
      while !i < !b do
        while !i < !b && is_ws s.[!i] do
          incr i
        done;
        if !i < !b then begin
          let t0 = !i in
          let sign =
            if s.[!i] = '-' then begin
              incr i;
              -1
            end
            else begin
              if s.[!i] = '+' then incr i;
              1
            end
          in
          let acc = ref 0 in
          let ok = ref (!i < !b && not (is_ws s.[!i])) in
          while !ok && !i < !b && not (is_ws s.[!i]) do
            let c = s.[!i] in
            if c < '0' || c > '9' then ok := false
            else begin
              acc := (!acc * 10) + (Char.code c - Char.code '0');
              incr i
            end
          done;
          if not !ok then begin
            let te = ref t0 in
            while !te < !b && not (is_ws s.[!te]) do
              incr te
            done;
            failwith ("Proof.of_string: " ^ String.sub s t0 (!te - t0))
          end;
          if !n >= Array.length !buf then begin
            let d = Array.make (2 * !n) 0 in
            Array.blit !buf 0 d 0 !n;
            buf := d
          end;
          (!buf).(!n) <- sign * !acc;
          incr n
        end
      done;
      if !n = 0 || (!buf).(!n - 1) <> 0 then
        failwith "Proof.of_string: missing terminating 0";
      let c = Array.sub !buf 0 (!n - 1) in
      if deletion then delete p c else add p c
    end
  done;
  p

(* --- RUP checking ---------------------------------------------------- *)

(* Assignment: 0 unassigned, 1 true, -1 false (indexed by variable). *)
let lit_value assignment l =
  let v = assignment.(abs l) in
  if v = 0 then 0 else if l > 0 then v else -v

let assign assignment l = assignment.(abs l) <- (if l > 0 then 1 else -1)

(* Does unit propagation over [clauses] starting from the negation of
   [c] derive a conflict? *)
let rup clauses num_vars c =
  let assignment = Array.make (num_vars + 1) 0 in
  let conflict = ref false in
  Array.iter
    (fun l ->
      match lit_value assignment (-l) with
      | -1 -> conflict := true (* c contains complementary literals *)
      | _ -> assign assignment (-l))
    c;
  let progress = ref true in
  while !progress && not !conflict do
    progress := false;
    List.iter
      (fun clause ->
        if not !conflict then begin
          let unassigned = ref [] and satisfied = ref false in
          Array.iter
            (fun l ->
              match lit_value assignment l with
              | 1 -> satisfied := true
              | 0 -> unassigned := l :: !unassigned
              | _ -> ())
            clause;
          if not !satisfied then
            (* Duplicate literals within a clause must not hide a unit. *)
            match List.sort_uniq compare !unassigned with
            | [] -> conflict := true
            | [ l ] ->
              assign assignment l;
              progress := true
            | _ -> ()
        end)
      clauses
  done;
  !conflict

let clause_key c =
  let c = Array.copy c in
  Array.sort compare c;
  c

let check f p =
  let num_vars =
    List.fold_left
      (fun acc s ->
        let c = match s with Add c | Delete c -> c in
        Array.fold_left (fun acc l -> max acc (abs l)) acc c)
      f.Cnf.Formula.num_vars (steps p)
  in
  let db : (int array, int array) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter (fun c -> Hashtbl.add db (clause_key c) c) f.Cnf.Formula.clauses;
  let live () = Hashtbl.fold (fun _ c acc -> c :: acc) db [] in
  let derived_empty = ref (Cnf.Formula.is_trivially_unsat f) in
  let ok = ref true in
  List.iter
    (fun s ->
      if !ok then
        match s with
        | Add c ->
          if rup (live ()) num_vars c then begin
            Hashtbl.add db (clause_key c) c;
            if Array.length c = 0 then derived_empty := true
          end
          else ok := false
        | Delete c ->
          let k = clause_key c in
          if Hashtbl.mem db k then Hashtbl.remove db k else ok := false)
    (steps p);
  !ok && !derived_empty
