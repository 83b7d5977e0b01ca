(** ASCII AIGER ("aag") reading and writing.

    Covers the combinational subset of the format (no latches), which is
    what the preprocessing pipeline exchanges.  Reading tolerates AND
    definitions in any order and renumbers nodes canonically; writing
    emits the canonical numbering of {!Graph}. *)

exception Parse_error of string

val write_string : Graph.t -> string
val write_channel : Graph.t -> out_channel -> unit
val write_file : Graph.t -> string -> unit

val read_string : string -> Graph.t
(** Reads either format, dispatching on the ["aag"]/["aig"] magic.
    @raise Parse_error on malformed input. *)

val read_channel : in_channel -> Graph.t
val read_file : string -> Graph.t

(** {1 Binary format}

    The compact ["aig"] variant: AND gates are delta-compressed
    LEB128-style varints instead of ASCII triples — the format
    industrial AIG collections are distributed in. *)

val write_binary_string : Graph.t -> string
