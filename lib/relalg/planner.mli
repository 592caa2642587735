(** Logical-to-physical translation.

    The planner pushes scan-level predicates into the scan, selects index
    access paths when an index covers an equality (or range) predicate, and
    annotates operators with selectivity and group-count estimates.  These
    estimates feed the cost model; callers with better knowledge (the
    benchmark workloads know their true selectivities) override the defaults
    through [estimate] and [n_groups]. *)

val plan :
  ?estimate:(Expr.t -> float option) ->
  ?sample_with:Storage.Value.t array ->
  ?n_groups:float ->
  ?use_indexes:bool ->
  Storage.Catalog.t ->
  Plan.t ->
  Physical.t
(** [estimate pred] returns the selectivity of a predicate if known;
    [sample_with params] estimates base-table predicate selectivities by
    evaluating them on a data sample with the given query parameters (see
    {!Sampling}); [n_groups] overrides the group-by cardinality estimate;
    [use_indexes] (default true) can be switched off to force full scans
    (Fig. 10's "unindexed" configurations). *)
