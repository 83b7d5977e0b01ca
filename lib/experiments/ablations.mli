(** Ablation benches for the design choices DESIGN.md calls out —
    beyond the paper's own two ablations (Tables 4 and 5), these
    isolate the internal knobs of our substrates:

    - rewrite's MFFC credit (global vs. purely local gain),
    - resub's SAT proof budget (what the FRAIG actually proves),
    - the mapper's area-recovery passes,
    - the cut width k of the rewriter. *)

val rewrite_mffc : seeds:int list -> Table.t
val resub_budget : seeds:int list -> Table.t
val mapper_passes : seeds:int list -> Table.t
val cut_width : seeds:int list -> Table.t
val branching_heuristic : unit -> Table.t

val run_all : unit -> string
