(** Sampling-based selectivity estimation.

    The paper's optimizer relies on selectivity annotations; its authors
    knew their workloads' true selectivities.  For ad-hoc queries this
    module estimates them by evaluating the predicate on an untraced,
    deterministic pseudo-random sample of the stored tuples — the cheap,
    data-derived alternative to the textbook heuristics in
    {!Expr.default_selectivity}. *)

val selectivity :
  Storage.Catalog.t ->
  string ->
  Expr.t ->
  params:Storage.Value.t array ->
  float
(** [selectivity cat table pred ~params] evaluates [pred] on up to 512
    deterministically drawn tuples, tracing disabled, and returns the
    matching fraction.  An empty table yields the heuristic estimate.
    Results are clamped away from exactly 0 so downstream cardinalities
    stay positive. *)

val n_distinct : Storage.Catalog.t -> string -> int -> float
(** Estimated number of distinct values of an attribute, from a sample of
    up to 512 tuples (observed distincts, scaled up by the sampling
    fraction when the sample looks near-unique, capped at the row count). *)
