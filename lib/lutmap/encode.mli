(** LUT netlist to CNF (the [lut2cnf] step).

    Each LUT contributes the clauses of the irredundant prime covers of
    its function and complement: a cube [c] of ISOP(f) yields
    [(not c) or out], a cube of ISOP(not f) yields [(not c) or not out].
    This is the standard FPGA-mapping CNF encoding and makes the clause
    count per LUT exactly its branching complexity. *)

type encoding = {
  formula : Cnf.Formula.t;
  input_var : int array;   (** input i -> CNF variable *)
  lut_var : int array;     (** lut j -> CNF variable *)
}

val encode : ?assert_outputs:bool -> Netlist.t -> encoding
(** When [assert_outputs] (default true), every output is forced to 1
    (a constant-false output yields an empty clause).
    @raise Aig.Interrupt.Stopped within a LUT of a stop. *)
