(** Cheap per-job feature extraction for learned dispatch.

    One O(|F|) pass over the clause store computes the base features:
    size/ratio, clause-length histogram, variable-degree statistics,
    positive/negative literal balance, horn fraction — read straight
    off the zero-copy CSR arrays the engine already holds.  A caller
    with a {!Cnf.Formula.t} extracts [of_flat (Cnf.Flat.of_formula f)].

    The vector has a fixed total dimension: [base_dim] base features
    followed by [embedding_dim] slots for a {!Deepgate}-style netlist
    embedding, zero-filled when no circuit view exists (the common
    case for raw DIMACS traffic).  Keeping the layout fixed means one
    policy shape serves both kinds of traffic. *)

val base_dim : int
(** Number of base (formula-statistics) features: 16. *)

val embedding_dim : int
(** Slots reserved for an optional netlist embedding: 16. *)

val dim : int
(** [base_dim + embedding_dim]: the policy input dimension. *)

val of_flat : Cnf.Flat.t -> float array
(** Length-[dim] feature vector; embedding slots are zero. *)

val with_embedding : float array -> float array -> float array
(** [with_embedding base emb] returns a fresh copy of [base] with the
    first [embedding_dim] entries of [emb] written into the embedding
    slots (shorter embeddings leave the tail zero). *)

val names : string array
(** Human-readable name per coordinate, for [dispatch predict]. *)
