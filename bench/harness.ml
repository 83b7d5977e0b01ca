(* What every bench suite shares: argv lookup, the JSON it writes, the
   committed numbers it reads back and the gate that compares the two.

   A suite runs as [bench.exe SUITE [--json PATH] [--check PATH]
   [suite flags]].  [--json] writes the fresh measurement, [--check]
   gates it against a committed BENCH_<suite>.json, and both may be
   given so one measurement does both.  With neither, a suite writes
   BENCH_<suite>.json in the working directory. *)

(* --- argv --------------------------------------------------------------- *)

let arg name conv default =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then conv Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let flag name = Array.exists (( = ) name) Sys.argv
let json_path () = arg "--json" Option.some None
let check_path () = arg "--check" Option.some None

(* --- shared workload helpers -------------------------------------------- *)

let dim ~scale n = max 4 (int_of_float (float_of_int n *. scale))

let geomean = function
  | [] -> 1.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let result_name = function
  | Sat.Solver.Sat _ -> "SAT"
  | Sat.Solver.Unsat -> "UNSAT"
  | Sat.Solver.Unknown -> "UNKNOWN"

let verdict_name = function
  | Server.Sat _ -> "SAT"
  | Server.Unsat -> "UNSAT"
  | Server.Timeout -> "TIMEOUT"
  | Server.Failed _ -> "FAILED"

let ok = function
  | Ok v -> v
  | Error r -> failwith ("rejected: " ^ r)

(* The middle element; the upper of the two middle ones for an even
   count. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* --- the machine --------------------------------------------------------- *)

(* What follows "model name :" on the first such line of /proc/cpuinfo,
   or "unknown" where there is none. *)
let cpu_model () =
  let model line =
    if String.starts_with ~prefix:"model name" line then
      Option.map
        (fun i ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        (String.index_opt line ':')
    else None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    Option.value ~default:"unknown"
      (List.find_map model (String.split_on_char '\n' text))

(* A fresh directory under $TMPDIR, removed with the files in it once
   [f] returns or raises. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let remove () =
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  Fun.protect ~finally:(fun () -> try remove () with _ -> ()) (fun () -> f dir)

(* --- JSON out ----------------------------------------------------------- *)

type json =
  | Num of string  (* already formatted *)
  | Str of string
  | Raw of string  (* a pre-rendered JSON value, e.g. a metrics snapshot *)
  | List of json list
  | Obj of (string * json) list

let int n = Num (string_of_int n)
let fixed digits x = Num (Printf.sprintf "%.*f" digits x)

(* The machine a committed figure was measured on. *)
let host () =
  [
    ("nproc", int (Domain.recommended_domain_count ()));
    ("cpu_model", Str (cpu_model ()));
  ]

let rec render buf indent = function
  | Num s | Raw s -> Buffer.add_string buf s
  | Str s -> Printf.bprintf buf "\"%s\"" (String.escaped s)
  | List xs -> group buf indent '[' ']' (List.map (fun x -> (None, x)) xs)
  | Obj kvs ->
    group buf indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) kvs)

(* A group of scalars stays on one line; anything holding a group, and
   the top-level object, gets one member per line. *)
and group buf indent op cl members =
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let member (k, v) =
    Option.iter (fun k -> Printf.bprintf buf "\"%s\": " (String.escaped k)) k;
    render buf (indent ^ "  ") v
  in
  Buffer.add_char buf op;
  if indent <> "" && List.for_all (fun (_, v) -> scalar v) members then
    List.iteri
      (fun i m ->
        if i > 0 then Buffer.add_string buf ", ";
        member m)
      members
  else begin
    List.iteri
      (fun i m ->
        Buffer.add_string buf (if i > 0 then ",\n" else "\n");
        Buffer.add_string buf (indent ^ "  ");
        member m)
      members;
    Buffer.add_string buf ("\n" ^ indent)
  end;
  Buffer.add_char buf cl

let to_string doc =
  let buf = Buffer.create 4096 in
  render buf "" doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_json path doc =
  let oc = open_out path in
  output_string oc (to_string doc);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- committed numbers in ---------------------------------------------- *)

(* The offset just past the first [needle] at or after [pos]. *)
let find_from json pos needle =
  let len = String.length json and n = String.length needle in
  let rec go i =
    if i + n > len then None
    else if String.sub json i n = needle then Some (i + n)
    else go (i + 1)
  in
  go pos

(* The number under [path] in a file this harness wrote: each key is
   searched for after the previous one, so ["arena"; "php(7,6)";
   "props_per_sec"] reads a field of one instance of one section, and
   a one-key path reads the first field of that name. *)
let number json path =
  let len = String.length json in
  let rec descend pos = function
    | [] -> None
    | [ key ] ->
      Option.bind (find_from json pos ("\"" ^ key ^ "\":")) (fun i ->
          try Some (Scanf.sscanf (String.sub json i (len - i)) " %f" Fun.id)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | key :: rest ->
      Option.bind (find_from json pos ("\"" ^ key ^ "\"")) (fun i ->
          descend i rest)
  in
  descend 0 path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The list of strings under [key] in a file this harness wrote, e.g.
   the lane names ["lanes"] of BENCH_portfolio.json ([Str] items
   holding no comma or bracket); [] when the key is absent. *)
let strings json key =
  match find_from json 0 ("\"" ^ key ^ "\": [") with
  | None -> []
  | Some i ->
    String.sub json i (String.index_from json i ']' - i)
    |> String.split_on_char ','
    |> List.filter_map (fun item ->
           let item = String.trim item in
           let n = String.length item in
           if n < 2 then None
           else Some (Scanf.unescaped (String.sub item 1 (n - 2))))

(* --- the gate ----------------------------------------------------------- *)

type condition = {
  what : string;
  fresh : string;
  op : string;
  limit : string;
  ok : bool;
}

let number_condition what op test fresh limit =
  { what; fresh = Printf.sprintf "%.4g" fresh; op;
    limit = Printf.sprintf "%.4g" limit; ok = test fresh limit }

let at_least what = number_condition what ">=" ( >= )
let at_most what = number_condition what "<=" ( <= )

(* The fresh run must reproduce a committed list of names exactly: a
   baseline only describes what it measured. *)
let same_names what fresh committed =
  { what; fresh = String.concat "," fresh; op = "=";
    limit = String.concat "," committed; ok = fresh = committed }

(* The string list under [key] in the committed file [--check] names;
   [] without [--check]. *)
let committed_strings key =
  Option.fold ~none:[] ~some:(fun p -> strings (read_file p) key)
    (check_path ())

type lookup = string list -> float

(* Reads every key in [keys] from the committed file, then hands
   [conditions] a lookup restricted to those keys.  A missing key fails
   the gate like a regression does: a renamed instance or field must
   not pass by checking nothing.  True when the gate passed. *)
let gate ~suite ~keys path (conditions : lookup -> condition list) =
  let json = read_file path in
  let found = List.map (fun k -> (k, number json k)) keys in
  let missing = List.filter (fun (_, v) -> v = None) found in
  List.iter
    (fun (k, _) ->
      Printf.printf "CHECK %s missing from %s: FAILED\n" (String.concat "." k)
        path)
    missing;
  let conds =
    if missing <> [] then []
    else
      conditions (fun k ->
          match List.assoc_opt k found with
          | Some (Some v) -> v
          | _ ->
            invalid_arg
              (Printf.sprintf "%s gate reads undeclared key %s" suite
                 (String.concat "." k)))
  in
  List.iter
    (fun c ->
      Printf.printf "CHECK %-44s %12s %s %12s: %s\n" c.what c.fresh c.op
        c.limit
        (if c.ok then "OK" else "FAILED"))
    conds;
  let passed = missing = [] && List.for_all (fun c -> c.ok) conds in
  Printf.printf "%s check %s%s\n%!" suite
    (if passed then "passed" else "FAILED")
    (if keys = [] && conds = [] then " (nothing gated)" else "");
  passed

type suite = {
  name : string;  (* the BENCH_<name>.json stem *)
  doc : string;
  keys : string list list;  (* the committed numbers its gate reads *)
  run : unit -> (json * (lookup -> condition list)) option;
      (* the fresh document and its gate, or [None] when the suite
         only prints *)
}

(* Write the document where asked (or to BENCH_<suite>.json when
   neither flag is given), then gate it. *)
let finish s (doc, conditions) =
  let check = check_path () in
  (match (json_path (), check) with
   | Some path, _ -> write_json path doc
   | None, None -> write_json (Printf.sprintf "BENCH_%s.json" s.name) doc
   | None, Some _ -> ());
  match check with
  | Some path when not (gate ~suite:s.name ~keys:s.keys path conditions) ->
    exit 1
  | _ -> ()

let main suites =
  let usage () =
    prerr_endline "usage: bench.exe SUITE [--json PATH] [--check PATH] [flags]";
    List.iter (fun s -> Printf.eprintf "  %-14s %s\n" s.name s.doc) suites;
    exit 2
  in
  if Array.length Sys.argv < 2 then usage ();
  match List.find_opt (fun s -> s.name = Sys.argv.(1)) suites with
  | None -> usage ()
  | Some s -> Option.iter (finish s) (s.run ())
