exception Parse_error of string

(* --- writing --------------------------------------------------------- *)

let source_name = function
  | Netlist.Input i -> Printf.sprintf "i%d" i
  | Netlist.Lut_out j -> Printf.sprintf "n%d" j
  | Netlist.Const b -> if b then "const1" else "const0"

let write_string ?(model_name = "eda4sat") nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" model_name);
  Buffer.add_string buf ".inputs";
  for i = 0 to nl.Netlist.num_inputs - 1 do
    Buffer.add_string buf (Printf.sprintf " i%d" i)
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ".outputs";
  Array.iteri
    (fun i _ -> Buffer.add_string buf (Printf.sprintf " o%d" i))
    nl.Netlist.outputs;
  Buffer.add_char buf '\n';
  (* Constants, if referenced. *)
  let uses_const b =
    let check = function Netlist.Const c -> c = b | _ -> false in
    Array.exists (fun l -> Array.exists check l.Netlist.fanins) nl.Netlist.luts
    || Array.exists (fun (src, _) -> check src) nl.Netlist.outputs
  in
  if uses_const true then Buffer.add_string buf ".names const1\n1\n";
  if uses_const false then Buffer.add_string buf ".names const0\n";
  (* One .names block per LUT: the ISOP on-set cover. *)
  Array.iteri
    (fun j lut ->
      Buffer.add_string buf ".names";
      Array.iter
        (fun src -> Buffer.add_string buf (" " ^ source_name src))
        lut.Netlist.fanins;
      Buffer.add_string buf (Printf.sprintf " n%d\n" j);
      let n = Array.length lut.Netlist.fanins in
      List.iter
        (fun cube ->
          let plane =
            String.init n (fun v ->
                if Aig.Cube.mem_pos cube v then '1'
                else if Aig.Cube.mem_neg cube v then '0'
                else '-')
          in
          Buffer.add_string buf (plane ^ " 1\n"))
        (Aig.Isop.compute lut.Netlist.tt))
    nl.Netlist.luts;
  (* Output buffers / inverters. *)
  Array.iteri
    (fun i (src, compl_) ->
      Buffer.add_string buf
        (Printf.sprintf ".names %s o%d\n%s 1\n" (source_name src) i
           (if compl_ then "0" else "1")))
    nl.Netlist.outputs;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file ?model_name nl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write_string ?model_name nl))

(* --- reading --------------------------------------------------------- *)

type raw_names = {
  inputs : string list;
  output : string;
  cubes : (string * char) list; (* plane, output bit *)
}

let tokenize line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* Join lines continued with a trailing backslash; strip comments. *)
let logical_lines s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> List.fold_left
       (fun (acc, pending) line ->
         let line = pending ^ line in
         let line = String.trim line in
         if String.length line > 0 && line.[String.length line - 1] = '\\'
         then (acc, String.sub line 0 (String.length line - 1) ^ " ")
         else (line :: acc, ""))
       ([], "")
  |> fun (acc, pending) ->
  List.rev (if pending = "" then acc else pending :: acc)
  |> List.filter (fun l -> l <> "")

let read_string s =
  let lines = logical_lines s in
  let inputs = ref [] and outputs = ref [] in
  let blocks = ref [] in
  let current : raw_names option ref = ref None in
  let models_seen = ref 0 in
  let finish () =
    match !current with
    | Some b ->
      blocks := { b with cubes = List.rev b.cubes } :: !blocks;
      current := None
    | None -> ()
  in
  List.iter
    (fun line ->
      match tokenize line with
      | ".model" :: _ ->
        incr models_seen;
        if !models_seen > 1 then
          raise (Parse_error "multiple models not supported")
      | ".inputs" :: names ->
        finish ();
        inputs := !inputs @ names
      | ".outputs" :: names ->
        finish ();
        outputs := !outputs @ names
      | ".names" :: rest -> (
        finish ();
        match List.rev rest with
        | out :: ins_rev ->
          current :=
            Some { inputs = List.rev ins_rev; output = out; cubes = [] }
        | [] -> raise (Parse_error ".names without a signal"))
      | [ ".end" ] -> finish ()
      | (".latch" | ".subckt") :: _ ->
        raise (Parse_error "sequential/hierarchical BLIF not supported")
      | tokens -> (
        match (!current, tokens) with
        | Some b, [ plane; bit ] when String.length bit = 1 ->
          current := Some { b with cubes = (plane, bit.[0]) :: b.cubes }
        | Some b, [ bit ] when String.length bit = 1 && b.inputs = [] ->
          current := Some { b with cubes = ("", bit.[0]) :: b.cubes }
        | _ -> raise (Parse_error ("unexpected line: " ^ line)))
      )
    lines;
  finish ();
  let blocks = List.rev !blocks in
  (* Resolve signal names. *)
  let input_index = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace input_index name i) !inputs;
  let block_of = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem block_of b.output || Hashtbl.mem input_index b.output
      then raise (Parse_error ("signal defined twice: " ^ b.output));
      Hashtbl.replace block_of b.output b)
    blocks;
  (* Topological order over blocks. *)
  let order = ref [] in
  let state = Hashtbl.create 16 in
  let rec visit name =
    match Hashtbl.find_opt state name with
    | Some `Done -> ()
    | Some `Active -> raise (Parse_error "combinational loop")
    | None ->
      Hashtbl.replace state name `Active;
      (match Hashtbl.find_opt block_of name with
       | None ->
         if not (Hashtbl.mem input_index name) then
           raise (Parse_error ("undefined signal: " ^ name))
       | Some b ->
         List.iter visit b.inputs;
         order := b :: !order);
      Hashtbl.replace state name `Done
  in
  List.iter (fun b -> visit b.output) blocks;
  let order = List.rev !order in
  (* Build the netlist. *)
  let lut_index = Hashtbl.create 16 in
  let luts = ref [] and count = ref 0 in
  let source_of name =
    match Hashtbl.find_opt input_index name with
    | Some i -> Netlist.Input i
    | None -> (
      match Hashtbl.find_opt lut_index name with
      | Some j -> Netlist.Lut_out j
      | None -> raise (Parse_error ("undefined signal: " ^ name)))
  in
  List.iter
    (fun b ->
      let n = List.length b.inputs in
      if n > 16 then raise (Parse_error "cover wider than 16 inputs");
      let tt = ref (Aig.Tt.create_const n false) in
      let polarity = ref None in
      List.iter
        (fun (plane, bit) ->
          if String.length plane <> n then
            raise (Parse_error "cube width mismatch");
          (match (bit, !polarity) with
           | ('0' | '1'), None -> polarity := Some bit
           | b', Some p when b' = p -> ()
           | _ -> raise (Parse_error "mixed-polarity cover"));
          (* Expand the cube into the table. *)
          let cube = ref (Aig.Tt.create_const n true) in
          String.iteri
            (fun v ch ->
              let var = Aig.Tt.var n v in
              match ch with
              | '1' -> cube := Aig.Tt.and_ !cube var
              | '0' -> cube := Aig.Tt.and_ !cube (Aig.Tt.not_ var)
              | '-' -> ()
              | _ -> raise (Parse_error "bad cube character"))
            plane;
          tt := Aig.Tt.or_ !tt !cube)
        b.cubes;
      let tt =
        match !polarity with
        | Some '0' -> Aig.Tt.not_ !tt (* off-set cover *)
        | Some '1' | None -> !tt
        | Some _ -> assert false
      in
      let fanins = Array.of_list (List.map source_of b.inputs) in
      luts := { Netlist.tt; fanins } :: !luts;
      Hashtbl.replace lut_index b.output !count;
      incr count)
    order;
  let outputs =
    Array.of_list (List.map (fun name -> (source_of name, false)) !outputs)
  in
  let nl =
    {
      Netlist.num_inputs = List.length !inputs;
      luts = Array.of_list (List.rev !luts);
      outputs;
    }
  in
  Netlist.validate nl;
  nl
