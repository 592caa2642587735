(** Per-engine CPU (instruction) cost constants, in cycles.

    The paper's central claim is that processing models differ in CPU
    efficiency: Volcano and HYRISE chase function pointers per tuple or per
    value, while bulk primitives and JiT-generated code run tight,
    predictable loops.  The simulator charges these constants explicitly so
    that the two performance dimensions (Fig. 1) stay separable. *)

val jit_per_value : int
(** Cost to load-and-process one value in generated code (the paper's l1). *)

val bulk_per_value : int
(** Cost per value in a bulk primitive's tight loop. *)

val hyrise_per_value : int
(** Indirect-call overhead HYRISE pays per processed value inside an N-ary
    partition (container abstraction with per-attribute virtual calls). *)

val volcano_next_call : int
(** Cost of one virtual [next()] call crossing an operator boundary:
    call/return, pipeline hazards, lost instruction-cache locality. *)

val volcano_per_value : int
(** Per-value cost inside a Volcano operator (interpreted expression step). *)

val hash_op : int
(** Cost of hashing a key and computing a slot. *)
