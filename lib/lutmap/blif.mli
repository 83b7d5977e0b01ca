(** BLIF reading and writing for LUT netlists.

    Berkeley Logic Interchange Format is what ABC, mockturtle, VPR and
    FPGA flows exchange mapped netlists in; each [.names] block is one
    LUT given as a single-output cube cover.  Writing emits the ISOP
    cover of each LUT; complemented outputs get an explicit inverter
    block (BLIF has no complement edges).  Reading accepts blocks in
    any order and topologically sorts them. *)

exception Parse_error of string

val write_string : ?model_name:string -> Netlist.t -> string
val write_file : ?model_name:string -> Netlist.t -> string -> unit

val read_string : string -> Netlist.t
(** @raise Parse_error on malformed input, combinational loops,
    multi-model files or covers wider than 16 inputs. *)
