exception Parse_error of string

let write_string f =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" f.Formula.num_vars
       (Formula.num_clauses f));
  Array.iter
    (fun c ->
      Array.iter (fun l -> Buffer.add_string buf (string_of_int l);
                   Buffer.add_char buf ' ')
        c;
      Buffer.add_string buf "0\n")
    f.Formula.clauses;
  Buffer.contents buf

let write_file f path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write_string f))

(* Single-pass cursor parser: one scan over the input, no line
   splitting, no token lists — literals are decoded directly from the
   buffer (the only per-token allocation is the substring built for an
   error message).  Comment lines are those whose first
   non-(horizontal-)whitespace character is 'c' or '%', as before; the
   [bol] flag distinguishes them from the 'cnf' keyword mid-line. *)
let read_string s =
  let len = String.length s in
  let pos = ref 0 in
  let bol = ref true in
  let rec skip_ws () =
    if !pos < len then begin
      let c = String.unsafe_get s !pos in
      if c = '\n' then begin
        bol := true;
        incr pos;
        skip_ws ()
      end
      else if c = ' ' || c = '\t' || c = '\r' then begin
        incr pos;
        skip_ws ()
      end
      else if !bol && (c = 'c' || c = '%') then begin
        while !pos < len && String.unsafe_get s !pos <> '\n' do
          incr pos
        done;
        skip_ws ()
      end
      else bol := false
    end
  in
  let token_end () =
    let e = ref !pos in
    while
      !e < len
      &&
      let c = String.unsafe_get s !e in
      c <> ' ' && c <> '\t' && c <> '\r' && c <> '\n'
    do
      incr e
    done;
    !e
  in
  (* Decode the token at the cursor as a decimal int (optional sign);
     anything else — including overflow — calls [err]. *)
  let parse_int err =
    let e = token_end () in
    let i = ref !pos in
    if !i < e && (s.[!i] = '-' || s.[!i] = '+') then incr i;
    if !i >= e then err ();
    let acc = ref 0 in
    for k = !i to e - 1 do
      let c = String.unsafe_get s k in
      if c < '0' || c > '9' then err ();
      let d = Char.code c - Char.code '0' in
      if !acc > (max_int - d) / 10 then err ();
      acc := (!acc * 10) + d
    done;
    let v = if s.[!pos] = '-' then - !acc else !acc in
    pos := e;
    v
  in
  let expect_word w err =
    let e = token_end () in
    if e - !pos <> String.length w || String.sub s !pos (e - !pos) <> w then
      err ();
    pos := e
  in
  let bad_header () = raise (Parse_error "missing 'p cnf' header") in
  let bad_pline () = raise (Parse_error "bad p-line") in
  let bad_token () =
    raise (Parse_error ("bad token: " ^ String.sub s !pos (token_end () - !pos)))
  in
  skip_ws ();
  expect_word "p" bad_header;
  skip_ws ();
  expect_word "cnf" bad_header;
  skip_ws ();
  if !pos >= len then bad_header ();
  let num_vars = parse_int bad_pline in
  skip_ws ();
  if !pos >= len then bad_header ();
  let num_clauses = parse_int bad_pline in
  let clauses = ref [] in
  let nclauses = ref 0 in
  let cur = ref (Array.make 16 0) in
  let ncur = ref 0 in
  let eof = ref false in
  while not !eof do
    skip_ws ();
    if !pos >= len then eof := true
    else begin
      let l = parse_int bad_token in
      if l = 0 then begin
        clauses := Array.sub !cur 0 !ncur :: !clauses;
        incr nclauses;
        ncur := 0
      end
      else begin
        if !ncur >= Array.length !cur then begin
          let d = Array.make (2 * !ncur) 0 in
          Array.blit !cur 0 d 0 !ncur;
          cur := d
        end;
        !cur.(!ncur) <- l;
        incr ncur
      end
    end
  done;
  if !ncur <> 0 then raise (Parse_error "trailing unterminated clause");
  if !nclauses <> num_clauses then
    raise
      (Parse_error
         (Printf.sprintf "clause count mismatch: header %d, found %d"
            num_clauses !nclauses));
  try Formula.create ~num_vars (List.rev !clauses)
  with Invalid_argument m -> raise (Parse_error m)

(* ------------------------------------------------------------------ *)
(* Zero-copy ingest: the same cursor grammar over an mmapped Bigarray,
   emitting a flat CSR store ([Flat.t]) — no per-clause arrays, no
   clause list, no final [List.rev]/[Array.of_list].  Error messages
   and their precedence are byte-for-byte those of [read_string] +
   [Formula.create]: parse errors first, then "trailing unterminated
   clause", then the clause-count mismatch, then negative [num_vars],
   then the first out-of-range literal in clause order. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf_of_string s : buf =
  let n = String.length s in
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (String.unsafe_get s i)
  done;
  b

(* The CSR accumulators belong to the domain, so a parse allocates only
   its two exact-size result arrays (fresh, since the [Flat.t] may move
   to another domain).  Accumulators up to [max_retained_words] words
   each (2 MB) stay with the domain between parses; a bigger input grows
   its own and drops them. *)
type scratch = { mutable lits : int array; mutable offs : int array }

let scratch_key =
  Domain.DLS.new_key (fun () -> { lits = [||]; offs = [||] })
let max_retained_words = 1 lsl 18

let parse_flat (b : buf) =
  let len = Bigarray.Array1.dim b in
  let sub_string st e =
    String.init (e - st) (fun i -> Bigarray.Array1.get b (st + i))
  in
  let pos = ref 0 in
  let bol = ref true in
  let rec skip_ws () =
    if !pos < len then begin
      let c = Bigarray.Array1.unsafe_get b !pos in
      if c = '\n' then begin
        bol := true;
        incr pos;
        skip_ws ()
      end
      else if c = ' ' || c = '\t' || c = '\r' then begin
        incr pos;
        skip_ws ()
      end
      else if !bol && (c = 'c' || c = '%') then begin
        while !pos < len && Bigarray.Array1.unsafe_get b !pos <> '\n' do
          incr pos
        done;
        skip_ws ()
      end
      else bol := false
    end
  in
  let token_end () =
    let e = ref !pos in
    while
      !e < len
      &&
      let c = Bigarray.Array1.unsafe_get b !e in
      c <> ' ' && c <> '\t' && c <> '\r' && c <> '\n'
    do
      incr e
    done;
    !e
  in
  (* Single-scan decimal decode: each byte is classified once, and the
     overflow guard is the division-free form of
     [acc * 10 + d > max_int].  [err] fires on the same inputs as the
     two-scan reference ([read_string]'s parse_int): a sign with no
     digits, any non-digit inside the token, overflow — with [pos]
     still at the token start so the error substring is identical. *)
  let max_div10 = max_int / 10 in
  let max_mod10 = max_int mod 10 in
  let parse_int err =
    let start = !pos in
    let i = ref start in
    (let c = Bigarray.Array1.unsafe_get b !i in
     if c = '-' || c = '+' then incr i);
    let first_digit = !i in
    let acc = ref 0 in
    let stop = ref false in
    let bad = ref false in
    while (not !stop) && !i < len do
      let c = Bigarray.Array1.unsafe_get b !i in
      if c >= '0' && c <= '9' then begin
        let d = Char.code c - Char.code '0' in
        if !acc > max_div10 || (!acc = max_div10 && d > max_mod10) then begin
          bad := true;
          stop := true
        end
        else begin
          acc := (!acc * 10) + d;
          incr i
        end
      end
      else begin
        stop := true;
        if c <> ' ' && c <> '\t' && c <> '\r' && c <> '\n' then bad := true
      end
    done;
    if !bad || !i = first_digit then err ();
    let v = if Bigarray.Array1.unsafe_get b start = '-' then - !acc else !acc in
    pos := !i;
    v
  in
  let expect_word w err =
    let e = token_end () in
    if e - !pos <> String.length w || sub_string !pos e <> w then err ();
    pos := e
  in
  let bad_header () = raise (Parse_error "missing 'p cnf' header") in
  let bad_pline () = raise (Parse_error "bad p-line") in
  let bad_token () =
    raise (Parse_error ("bad token: " ^ sub_string !pos (token_end ())))
  in
  skip_ws ();
  expect_word "p" bad_header;
  skip_ws ();
  expect_word "cnf" bad_header;
  skip_ws ();
  if !pos >= len then bad_header ();
  let num_vars = parse_int bad_pline in
  skip_ws ();
  if !pos >= len then bad_header ();
  let num_clauses = parse_int bad_pline in
  (* CSR accumulators: clause-end offsets (offs.(0) = 0 sentinel) and
     the literal stream, both grown by doubling — amortized O(1) per
     literal, no per-clause allocation. *)
  (* A literal token occupies at least 4 input bytes in realistic
     instances ("±dd "), so [len / 4] estimates the literal count —
     seeding capacity there skips nearly all the doubling copies
     without overshooting big inputs by more than ~2x. *)
  let scratch = Domain.DLS.get scratch_key in
  let at_least a n = if Array.length a >= n then a else Array.make n 0 in
  let lits = ref (at_least scratch.lits (min (len / 4) (1 lsl 24))) in
  let nlits = ref 0 in
  (* Every clause ends in a "0" token and a delimiter, so the input
     bounds the clause count whatever the header claims. *)
  let cap =
    if num_clauses > 0 then min num_clauses (min (len / 2) (1 lsl 20)) + 1
    else 64
  in
  let offs = ref (at_least scratch.offs cap) in
  !offs.(0) <- 0;
  let noffs = ref 1 in
  let push_lit l =
    if !nlits >= Array.length !lits then begin
      let d = Array.make (max 64 (2 * !nlits)) 0 in
      Array.blit !lits 0 d 0 !nlits;
      lits := d
    end;
    !lits.(!nlits) <- l;
    incr nlits
  in
  let push_off o =
    if !noffs >= Array.length !offs then begin
      let d = Array.make (2 * !noffs) 0 in
      Array.blit !offs 0 d 0 !noffs;
      offs := d
    end;
    !offs.(!noffs) <- o;
    incr noffs
  in
  (* Clause body: a fused scanner written as mutually tail-recursive
     functions so the cursor, accumulator and sign live in parameters
     (registers), not refs — without flambda a ref is a heap cell and
     a per-byte load/store, which caps a while-loop scanner well below
     memory speed.  The grammar and every error are exactly those of
     the generic [skip_ws]/[parse_int] pair above: when the inline
     decode sees a malformed token it rewinds [pos] and replays it
     through [parse_int bad_token], which raises the reference
     message. *)
  let fail start =
    pos := start;
    ignore (parse_int bad_token);
    assert false
  in
  (* A token longer than 18 digits may overflow the [acc * 10 + d]
     fast path (10^18 < max_int on 64-bit), so it is replayed through
     [parse_int], whose per-digit guard either errors exactly like the
     reference or yields the in-range value (leading zeros).  The refs
     are synced before this is called. *)
  let slow_emit start =
    pos := start;
    let v = parse_int bad_token in
    if v = 0 then push_off !nlits else push_lit v
  in
  (* The byte before a token's first digit recovers what the loop
     would otherwise have to carry: a digit-start token is always
     preceded by whitespace (the p-line count ends in whitespace/EOF
     and [scan] only enters [num] from a delimiter), a signed token by
     its sign — so [num] carries just cursor, first-digit index and
     accumulator, and the digit loop is as lean as a bare tokenizer.
     The array cursors [k] (= [!nlits]) and [no] (= [!noffs]) ride
     along as parameters too: without flambda a ref is a heap cell,
     and per-token loads/stores there cost as much as the decode — the
     refs are only synced at EOF and around the rare slow paths. *)
  let tok_start fd =
    let c = Bigarray.Array1.unsafe_get b (fd - 1) in
    if c = '-' || c = '+' then fd - 1 else fd
  in
  let rec scan i boln k no =
    if i >= len then begin
      nlits := k;
      noffs := no;
      pos := i
    end
    else
      let c = Bigarray.Array1.unsafe_get b i in
      if c = ' ' || c = '\t' || c = '\r' then scan (i + 1) boln k no
      else if c = '\n' then scan (i + 1) true k no
      else if boln && (c = 'c' || c = '%') then comment (i + 1) k no
      else if c >= '0' && c <= '9' then
        num (i + 1) i (Char.code c - Char.code '0') k no
      else if c = '-' || c = '+' then begin
        let j = i + 1 in
        if j >= len then fail i
        else
          let c1 = Bigarray.Array1.unsafe_get b j in
          if c1 >= '0' && c1 <= '9' then
            num (j + 1) j (Char.code c1 - Char.code '0') k no
          else fail i
      end
      else fail i
  and comment i k no =
    if i >= len then begin
      nlits := k;
      noffs := no;
      pos := i
    end
    else if Bigarray.Array1.unsafe_get b i <> '\n' then comment (i + 1) k no
    else scan (i + 1) true k no
  and num i fd acc k no =
    (* invariant: [b.(fd)] is a digit, [acc] holds the digits up to
       [i]; no per-digit overflow guard — [emit_then] replays any
       suspiciously long token *)
    if i >= len then emit_then i fd acc k no false
    else
      let c = Bigarray.Array1.unsafe_get b i in
      if c >= '0' && c <= '9' then
        num (i + 1) fd ((acc * 10) + Char.code c - 48) k no
      else if c = ' ' || c = '\t' || c = '\r' then emit_then i fd acc k no false
      else if c = '\n' then emit_then i fd acc k no true
      else fail (tok_start fd)
  and emit_then i fd acc k no nl =
    (* emit the token, then continue past its (already classified)
       delimiter; at EOF the continuation lands in [scan]'s first
       branch, which syncs the refs *)
    if i - fd <= 18 then
      if acc = 0 then begin
        let offs_arr = !offs in
        if no < Array.length offs_arr then begin
          Array.unsafe_set offs_arr no k;
          scan (i + 1) nl k (no + 1)
        end
        else begin
          nlits := k;
          noffs := no;
          push_off k;
          scan (i + 1) nl k !noffs
        end
      end
      else begin
        let v =
          if Bigarray.Array1.unsafe_get b (fd - 1) = '-' then -acc else acc
        in
        let arr = !lits in
        if k < Array.length arr then begin
          Array.unsafe_set arr k v;
          scan (i + 1) nl (k + 1) no
        end
        else begin
          nlits := k;
          noffs := no;
          push_lit v;
          scan (i + 1) nl !nlits no
        end
      end
    else begin
      nlits := k;
      noffs := no;
      slow_emit (tok_start fd);
      scan (i + 1) nl !nlits !noffs
    end
  in
  scan !pos !bol !nlits !noffs;
  if Array.length !lits <= max_retained_words then scratch.lits <- !lits;
  if Array.length !offs <= max_retained_words then scratch.offs <- !offs;
  let nclauses = !noffs - 1 in
  if !nlits <> !offs.(nclauses) then
    raise (Parse_error "trailing unterminated clause");
  if nclauses <> num_clauses then
    raise
      (Parse_error
         (Printf.sprintf "clause count mismatch: header %d, found %d"
            num_clauses nclauses));
  if num_vars < 0 then raise (Parse_error "Formula.create: negative num_vars");
  let arr = !lits in
  for k = 0 to !nlits - 1 do
    let l = Array.unsafe_get arr k in
    if l > num_vars || l < -num_vars then
      raise
        (Parse_error
           (Printf.sprintf "Formula: literal %d out of range (1..%d)" l
              num_vars))
  done;
  {
    Flat.num_vars;
    offsets = Array.sub !offs 0 (nclauses + 1);
    lits = Array.sub !lits 0 !nlits;
  }

let read_flat_string s = parse_flat (buf_of_string s)

(* Map the file when it is a plain non-empty regular file; fall back
   to a channel slurp otherwise (pipes, /proc files, empty files — a
   zero-length mapping is an error on some systems) so error behaviour
   for odd paths matches the old reader.  The channel is opened with
   [open_in] first so missing-file errors stay the familiar
   [Sys_error]. *)
let read_flat_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fd = Unix.descr_of_in_channel ic in
      let st = Unix.fstat fd in
      let slurp () =
        buf_of_string (really_input_string ic (in_channel_length ic))
      in
      let b =
        if st.Unix.st_kind = Unix.S_REG && st.Unix.st_size > 0 then
          try
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false
                 [| st.Unix.st_size |])
          with Unix.Unix_error _ | Sys_error _ -> slurp ()
        else slurp ()
      in
      parse_flat b)

let read_file path = Flat.to_formula (read_flat_file path)
