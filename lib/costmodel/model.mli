(** End-to-end query cost estimation: plan → pattern program → cycles. *)

val query_cost :
  ?layouts:(string * Storage.Layout.t) list ->
  ?encodings:(string * (int * Emit.enc_hint) list) list ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  ?params:Memsim.Params.t ->
  ?additive:bool ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  float
(** Estimated cycles for one execution of the plan under the given (or
    stored) layouts.  [additive] switches to the original non-prefetch-aware
    cost function (for ablations). *)

val workload_cost :
  ?layouts:(string * Storage.Layout.t) list ->
  ?encodings:(string * (int * Emit.enc_hint) list) list ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  ?params:Memsim.Params.t ->
  ?additive:bool ->
  Storage.Catalog.t ->
  (Relalg.Physical.t * float) list ->
  float
(** Frequency-weighted sum over a workload of (plan, frequency) pairs. *)
