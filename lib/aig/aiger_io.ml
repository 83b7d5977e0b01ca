exception Parse_error of string

let write_buffer g buf =
  let npis = Graph.num_pis g
  and nands = Graph.num_ands g
  and npos = Graph.num_pos g in
  let m = npis + nands in
  Buffer.add_string buf (Printf.sprintf "aag %d %d 0 %d %d\n" m npis npos nands);
  for i = 0 to npis - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (i + 1)))
  done;
  for i = 0 to npos - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (Graph.po g i))
  done;
  Graph.iter_ands g (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (2 * id) (Graph.fanin0 g id)
           (Graph.fanin1 g id)))

let write_string g =
  let buf = Buffer.create 4096 in
  write_buffer g buf;
  Buffer.contents buf

let write_channel g oc = output_string oc (write_string g)

let write_file g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel g oc)


(* --- binary ("aig") format ------------------------------------------ *)

let write_varint buf x =
  let x = ref x in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.chr ((!x land 0x7F) lor 0x80));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.chr !x)

let write_binary_string g =
  let npis = Graph.num_pis g
  and nands = Graph.num_ands g
  and npos = Graph.num_pos g in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d 0 %d %d\n" (npis + nands) npis npos nands);
  for i = 0 to npos - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (Graph.po g i))
  done;
  Graph.iter_ands g (fun id ->
      let lhs = 2 * id in
      let a = Graph.fanin0 g id and b = Graph.fanin1 g id in
      let rhs0 = max a b and rhs1 = min a b in
      assert (lhs > rhs0 && rhs0 >= rhs1);
      write_varint buf (lhs - rhs0);
      write_varint buf (rhs0 - rhs1));
  Buffer.contents buf

let read_binary_string s =
  (* Header and output lines are newline-terminated ASCII; the AND
     section is raw bytes. *)
  let pos = ref 0 in
  let len = String.length s in
  let next_line () =
    let start = !pos in
    while !pos < len && s.[!pos] <> '\n' do
      incr pos
    done;
    if !pos >= len then raise (Parse_error "truncated binary file");
    let line = String.sub s start (!pos - start) in
    incr pos;
    line
  in
  let header = next_line () in
  let m, i, l, o, a =
    match String.split_on_char ' ' header with
    | [ "aig"; m; i; l; o; a ] -> (
      try
        ( int_of_string m, int_of_string i, int_of_string l,
          int_of_string o, int_of_string a )
      with Failure _ -> raise (Parse_error "bad binary header"))
    | _ -> raise (Parse_error "expected 'aig M I L O A' header")
  in
  if l <> 0 then raise (Parse_error "latches not supported");
  if m <> i + a then raise (Parse_error "binary aig requires M = I + A");
  let output_lits =
    List.init o (fun _ ->
        try int_of_string (String.trim (next_line ()))
        with Failure _ -> raise (Parse_error "bad output line"))
  in
  let read_varint () =
    let x = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !pos >= len then raise (Parse_error "truncated AND section");
      let byte = Char.code s.[!pos] in
      incr pos;
      x := !x lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then continue := false
    done;
    !x
  in
  let g = Graph.create ~num_pis:i in
  (* Map original literal -> graph literal (identity numbering modulo
     strashing). *)
  let map = Array.make (2 * (m + 1)) Graph.const_false in
  map.(0) <- Graph.const_false;
  map.(1) <- Graph.const_true;
  for k = 0 to i - 1 do
    map.((2 * (k + 1))) <- Graph.pi g k;
    map.((2 * (k + 1)) + 1) <- Graph.lit_not (Graph.pi g k)
  done;
  for k = 0 to a - 1 do
    let lhs = 2 * (i + 1 + k) in
    let d0 = read_varint () in
    let d1 = read_varint () in
    let rhs0 = lhs - d0 in
    let rhs1 = rhs0 - d1 in
    if rhs0 < 0 || rhs1 < 0 || rhs0 >= lhs then
      raise (Parse_error "bad AND deltas");
    let lit = Graph.and_ g map.(rhs0) map.(rhs1) in
    map.(lhs) <- lit;
    map.(lhs + 1) <- Graph.lit_not lit
  done;
  List.iter
    (fun x ->
      if x < 0 || x >= Array.length map then
        raise (Parse_error "output literal out of range");
      Graph.add_po g map.(x))
    output_lits;
  g

exception Bad_int

(* Single-pass cursor parser over the ASCII ("aag") format: lines are
   located and their integers decoded directly from the input buffer —
   no line list, no token lists; substrings are built only for error
   messages. *)
let read_ascii_string s =
  let len = String.length s in
  let pos = ref 0 in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  (* Bounds (trimmed) of the next significant line: blank lines and
     'c' comment lines are skipped anywhere in the file. *)
  let rec next_line () =
    if !pos >= len then None
    else begin
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
      if !a = !b || s.[!a] = 'c' then next_line () else Some (!a, !b)
    end
  in
  let line_str a b = String.sub s a (b - a) in
  (* Decode the whitespace-separated decimal ints in s.[a..b); the
     first [Array.length dst] land in [dst], the count is returned. *)
  let scan_ints a b dst =
    let n = ref 0 in
    let i = ref a in
    while !i < b do
      while !i < b && is_ws s.[!i] do
        incr i
      done;
      if !i < b then begin
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
        if !i >= b || s.[!i] < '0' || s.[!i] > '9' then raise Bad_int;
        let acc = ref 0 in
        while !i < b && not (is_ws s.[!i]) do
          let c = s.[!i] in
          if c < '0' || c > '9' then raise Bad_int;
          acc := (!acc * 10) + (Char.code c - Char.code '0');
          incr i
        done;
        if !n < Array.length dst then dst.(!n) <- sign * !acc;
        incr n
      end
    done;
    !n
  in
  let buf3 = Array.make 3 0 in
  let ha, hb =
    match next_line () with
    | None -> raise (Parse_error "empty input")
    | Some (a, b) -> (a, b)
  in
  let bad_hdr () = raise (Parse_error "expected 'aag M I L O A' header") in
  if hb - ha < 4 || String.sub s ha 3 <> "aag" || not (is_ws s.[ha + 3]) then
    bad_hdr ();
  let h5 = Array.make 5 0 in
  let hn =
    try scan_ints (ha + 4) hb h5
    with Bad_int -> raise (Parse_error "bad header")
  in
  if hn <> 5 then bad_hdr ();
  let m = h5.(0) and i = h5.(1) and l = h5.(2) and o = h5.(3) and a = h5.(4) in
  if l <> 0 then raise (Parse_error "latches not supported");
  let section_line () =
    match next_line () with
    | None -> raise (Parse_error "truncated file")
    | Some (a, b) -> (a, b)
  in
  let line_ints a b =
    try scan_ints a b buf3
    with Bad_int -> raise (Parse_error ("bad line: " ^ line_str a b))
  in
  let input_lits = Array.make i 0 in
  for k = 0 to i - 1 do
    let a, b = section_line () in
    if line_ints a b = 1 && buf3.(0) land 1 = 0 && buf3.(0) > 0 then
      input_lits.(k) <- buf3.(0)
    else raise (Parse_error ("bad input line: " ^ line_str a b))
  done;
  let output_lits = Array.make o 0 in
  for k = 0 to o - 1 do
    let a, b = section_line () in
    if line_ints a b = 1 then output_lits.(k) <- buf3.(0)
    else raise (Parse_error ("bad output line: " ^ line_str a b))
  done;
  let and_defs = Hashtbl.create (2 * a) in
  for _ = 1 to a do
    let a, b = section_line () in
    if line_ints a b = 3 && buf3.(0) land 1 = 0 && buf3.(0) > 0 then begin
      if Hashtbl.mem and_defs (buf3.(0) / 2) then
        raise (Parse_error "duplicate AND definition");
      Hashtbl.add and_defs (buf3.(0) / 2) (buf3.(1), buf3.(2))
    end
    else raise (Parse_error ("bad AND line: " ^ line_str a b))
  done;
  (* Anything left is the symbol table / comment section: ignored. *)
  let g = Graph.create ~num_pis:i in
  (* Map original variable index -> new literal. *)
  let map = Hashtbl.create (2 * (m + 1)) in
  Hashtbl.add map 0 Graph.const_false;
  Array.iteri (fun idx x -> Hashtbl.add map (x / 2) (Graph.pi g idx)) input_lits;
    let building = Hashtbl.create 16 in
    let rec lit_value x =
      let v = x / 2 in
      let base =
        match Hashtbl.find_opt map v with
        | Some nl -> nl
        | None -> (
          if Hashtbl.mem building v then
            raise (Parse_error "cyclic AND definitions");
          Hashtbl.add building v ();
          match Hashtbl.find_opt and_defs v with
          | None ->
            raise (Parse_error (Printf.sprintf "undefined variable %d" v))
          | Some (r0, r1) ->
            let nl = Graph.and_ g (lit_value r0) (lit_value r1) in
            Hashtbl.remove building v;
            Hashtbl.add map v nl;
            nl)
      in
      Graph.lit_not_cond base (x land 1 = 1)
    in
    (* Materialize every defined AND (even ones unreachable from the
       outputs) so size statistics match the file.  Ascending variable
       order keeps recursion shallow for topologically sorted files. *)
    let vars = Hashtbl.fold (fun v _ acc -> v :: acc) and_defs [] in
    List.iter
      (fun v -> ignore (lit_value (2 * v)))
      (List.sort compare vars);
    Array.iter (fun x -> Graph.add_po g (lit_value x)) output_lits;
    g

let read_string s =
  if String.length s >= 4 && String.sub s 0 4 = "aig " then
    read_binary_string s
  else read_ascii_string s

let read_channel ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  read_string (Buffer.contents buf)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
