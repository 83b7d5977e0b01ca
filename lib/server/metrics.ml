type counter =
  | Submitted
  | Completed
  | Solved_sat
  | Solved_unsat
  | Timeouts
  | Failures
  | Rejected
  | Cache_hits
  | Warm_hits
  | Warm_seeded
  | Cubed
  | Cubes_solved
  | Cube_steals
  | Dedup_joins
  | Session_ops
  | Sessions_opened
  | Sessions_closed
  | Sessions_evicted
  | Session_solves
  | Sessions_live
  | Queue_depth
  | Inflight
  | Cache_entries
  | Latency_count
  | Parse_count
  | Warm_entries

type timing = Latency | Parse

type client_leg = [ `Requests | `Answered | `Rejected ]

(* Where a rendered value comes from. *)
type source =
  | Counted of counter             (* bumped by [add] *)
  | Sum of counter * counter list  (* derived: the sum of its legs *)
  | Sampled of counter             (* handed to [snapshot] *)
  | Observed of counter * timing   (* the timing's lifetime count *)
  | Rank of timing * float         (* nearest-rank quantile, ms *)
  | Max of timing                  (* worst observation, ms *)

(* The registry: every value's JSON name and source, in render order.
   Counts render as %d, Rank/Max as %.3f. *)
let fields =
  [|
    ("submitted", Counted Submitted);
    ( "completed",
      Sum (Completed, [ Solved_sat; Solved_unsat; Timeouts; Failures ]) );
    ("solved_sat", Counted Solved_sat);
    ("solved_unsat", Counted Solved_unsat);
    ("timeouts", Counted Timeouts);
    ("failures", Counted Failures);
    ("rejected", Counted Rejected);
    ("cache_hits", Counted Cache_hits);
    ("warm_hits", Counted Warm_hits);
    ("warm_seeded", Counted Warm_seeded);
    ("cubed", Counted Cubed);
    ("cubes_solved", Counted Cubes_solved);
    ("cube_steals", Counted Cube_steals);
    ("dedup_joins", Counted Dedup_joins);
    ("session_ops", Counted Session_ops);
    ("sessions_opened", Counted Sessions_opened);
    ("sessions_closed", Counted Sessions_closed);
    ("sessions_evicted", Counted Sessions_evicted);
    ("session_solves", Counted Session_solves);
    ("sessions_live", Sampled Sessions_live);
    ("queue_depth", Sampled Queue_depth);
    ("inflight", Sampled Inflight);
    ("cache_entries", Sampled Cache_entries);
    ("latency_count", Observed (Latency_count, Latency));
    ("p50_ms", Rank (Latency, 0.50));
    ("p95_ms", Rank (Latency, 0.95));
    ("max_ms", Max Latency);
    ("parse_count", Observed (Parse_count, Parse));
    ("parse_p50_ms", Rank (Parse, 0.50));
    ("parse_p95_ms", Rank (Parse, 0.95));
    ("parse_max_ms", Max Parse);
    ("warm_entries", Sampled Warm_entries);
  |]

let client_fields =
  [|
    (`Requests, "requests"); (`Answered, "answered"); (`Rejected, "rejected");
  |]

(* The request legs: every request the engine sees lands on exactly
   one of them. *)
let request_legs =
  [ Submitted; Cache_hits; Warm_hits; Dedup_joins; Rejected; Session_ops ]

type rule =
  | Equal of counter * counter list
  | Equal_when_idle of counter * counter list  (* once [Inflight] is 0 *)
  | At_most of counter * counter

(* The ledger beyond the derived sums, which [fields] declares. *)
let ledger =
  [
    Equal_when_idle (Completed, [ Submitted; Warm_hits ]);
    Equal
      (Sessions_opened, [ Sessions_live; Sessions_closed; Sessions_evicted ]);
    At_most (Warm_seeded, Warm_hits);
  ]

(* A counter's slot: the position of its field. *)
let slot =
  let h = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, src) ->
      match src with
      | Counted k | Sum (k, _) | Sampled k | Observed (k, _) ->
        Hashtbl.replace h k i
      | Rank _ | Max _ -> ())
    fields;
  Hashtbl.find h

let name k = fst fields.(slot k)

let position table key =
  let rec go i = if fst table.(i) = key then i else go (i + 1) in
  go 0

let ring_capacity = 4096

(* A bounded ring of the most recent observations (seconds), plus a
   lifetime count and max. *)
type window = {
  ring : float array;
  mutable len : int;
  mutable pos : int;
  mutable count : int;
  mutable max : float;
}

let window () =
  { ring = Array.make ring_capacity 0.0; len = 0; pos = 0; count = 0;
    max = 0.0 }

let push w s =
  let s = if s < 0.0 then 0.0 else s in
  w.ring.(w.pos) <- s;
  w.pos <- (w.pos + 1) mod ring_capacity;
  if w.len < ring_capacity then w.len <- w.len + 1;
  w.count <- w.count + 1;
  if s > w.max then w.max <- s

type t = {
  m : Mutex.t;
  counts : int array;  (* by [slot] *)
  windows : (timing * window) list;
  (* Per-client (tenant) counters by [client_fields] position, recorded
     by transport front-ends.  Client ids are free-form strings chosen
     at the wire edge. *)
  clients : (string, int array) Hashtbl.t;
}

let create () =
  {
    m = Mutex.create ();
    counts = Array.make (Array.length fields) 0;
    windows = [ (Latency, window ()); (Parse, window ()) ];
    clients = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let add t ?(n = 1) k =
  let i = slot k in
  locked t (fun () -> t.counts.(i) <- t.counts.(i) + n)

let observe t timing s =
  let w = List.assoc timing t.windows in
  locked t (fun () -> push w s)

let count_client t ~client leg =
  let i = position client_fields leg in
  locked t (fun () ->
      let c =
        match Hashtbl.find_opt t.clients client with
        | Some c -> c
        | None ->
          let c = Array.make (Array.length client_fields) 0 in
          Hashtbl.replace t.clients client c;
          c
      in
      c.(i) <- c.(i) + 1)

type value = Int of int | Ms of float

type snapshot = {
  values : value array;  (* by field position *)
  client_counts : (string * int array) list;  (* sorted by client id *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* What a snapshot is computed from, copied under the lock: the
   counters, the sampled values, a copy of each window holding just
   its observations, and the client counters. *)
type reading = {
  r_counts : int array;
  r_sampled : (counter * int) list;
  r_windows : (timing * window) list;
  r_clients : (string * int array) list;
}

let read t ~sampled =
  locked t (fun () ->
      {
        r_counts = Array.copy t.counts;
        r_sampled = sampled;
        r_windows =
          List.map
            (fun (timing, w) ->
              (timing, { w with ring = Array.sub w.ring 0 w.len }))
            t.windows;
        r_clients =
          Hashtbl.fold (fun name c acc -> (name, Array.copy c) :: acc)
            t.clients [];
      })

let of_reading r =
  let window timing = List.assoc timing r.r_windows in
  List.iter (fun (_, w) -> Array.sort Float.compare w.ring) r.r_windows;
  let count k = r.r_counts.(slot k) in
  let value = function
    | Counted k -> Int (count k)
    | Sum (_, legs) -> Int (List.fold_left (fun a k -> a + count k) 0 legs)
    | Sampled k -> Int (Option.value (List.assoc_opt k r.r_sampled) ~default:0)
    | Observed (_, timing) -> Int (window timing).count
    | Rank (timing, q) -> Ms (1000.0 *. percentile (window timing).ring q)
    | Max timing -> Ms (1000.0 *. (window timing).max)
  in
  {
    values = Array.map (fun (_, src) -> value src) fields;
    client_counts = List.sort (fun (a, _) (b, _) -> compare a b) r.r_clients;
  }

let snapshot t ~sampled = of_reading (read t ~sampled)

let get s k =
  match s.values.(slot k) with Int n -> n | Ms _ -> assert false

let client s name leg =
  Option.map
    (fun c -> c.(position client_fields leg))
    (List.assoc_opt name s.client_counts)

let sum s legs = List.fold_left (fun a k -> a + get s k) 0 legs
let requests s = sum s request_legs

let reconcile s =
  let derived =
    Array.to_list fields
    |> List.filter_map (function
         | _, Sum (k, legs) -> Some (Equal (k, legs))
         | _ -> None)
  in
  let equal k ks =
    if get s k = sum s ks then None
    else
      Some
        (Printf.sprintf "%s = %d <> %s = %d" (name k) (get s k)
           (String.concat " + " (List.map name ks))
           (sum s ks))
  in
  List.filter_map
    (function
      | Equal (k, ks) -> equal k ks
      | Equal_when_idle (k, ks) ->
        if get s Inflight = 0 then equal k ks else None
      | At_most (k, bound) ->
        if get s k <= get s bound then None
        else
          Some
            (Printf.sprintf "%s = %d > %s = %d" (name k) (get s k)
               (name bound) (get s bound)))
    (derived @ ledger)

let json_escape name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun ch ->
      match ch with
      | '"' | '\\' ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf ch
      | '\x00' .. '\x1f' -> Buffer.add_string buf "_"
      | ch -> Buffer.add_char buf ch)
    name;
  Buffer.contents buf

let obj members =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) members)
  ^ "}"

(* The clients object comes last so flat "key": N scanners keep
   resolving the top-level counters to their first (top-level)
   occurrence. *)
let to_json s =
  let render = function
    | Int n -> string_of_int n
    | Ms x -> Printf.sprintf "%.3f" x
  in
  let client (name, c) =
    ( json_escape name,
      obj
        (Array.to_list
           (Array.mapi (fun i (_, key) -> (key, string_of_int c.(i)))
              client_fields)) )
  in
  obj
    (Array.to_list
       (Array.mapi (fun i (key, _) -> (key, render s.values.(i))) fields)
    @ [ ("clients", obj (List.map client s.client_counts)) ])
