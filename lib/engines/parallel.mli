(** Morsel-driven parallel query execution on OCaml 5 domains.

    The scanned relation is split into fixed-size row ranges (morsels);
    worker domains pull morsel indices from an atomic work-stealing counter
    and run the unchanged base engine (Volcano, Bulk, Vectorized, HYRISE or
    JiT) over a shadow catalog in which the driver table is a {!type:
    Storage.Relation.t} slice of the morsel's rows.  Per-morsel partial
    results merge deterministically in morsel order:

    - scan/select/project pipelines concatenate their row lists, and
    - group-bys run with {!Relalg.Aggregate.decompose}d aggregates per
      morsel and recombine the partials, keeping global first-occurrence
      group order —

    so the merged result is identical to a sequential run of the same plan
    (bit-identical for integer aggregates; floating-point sums may differ in
    the last bits because addition is reassociated).

    Plans without a full-scan driver pipeline (joins, sorts, limits, index
    access, DML) fall back to one sequential run of the base engine.

    Simulated measurement composes per domain: every worker gets a private
    {!Memsim.Hierarchy.t} (same parameters as the catalog's) plus a private
    address arena, and the per-domain counters combine with
    {!Memsim.Stats.merge} — traffic and misses sum, cycle cost is the
    slowest domain (the simulated wall-clock).  In untraced mode the shadow
    catalogs carry no hierarchy at all, so worker domains share nothing
    mutable and real multicore speedups are measurable. *)

type runner = Storage.Catalog.t -> Relalg.Physical.t -> Runtime.result
(** One sequential engine run; {!Engine} supplies [Engine.run kind]. *)

type preparer =
  Storage.Catalog.t -> Relalg.Physical.t -> unit -> Runtime.result
(** Compile-once, run-many entry point ({!Jit.prepare}): the morsel loop
    calls the returned thunk per morsel over the resliced driver view
    instead of recompiling the pipeline.  Engines without one fall back to
    wrapping [runner]. *)

val parallelizable : Relalg.Physical.t -> bool
(** Whether the plan has a morsel-parallel execution shape (a full-scan
    scan/select/project pipeline, optionally under one group-by). *)

(** {2 Partial-result merge building blocks}

    The sharded executor ({!Shard.Exec}) distributes the same plan shapes
    over cluster nodes instead of morsels and reuses these pieces, so both
    parallel tiers share one merge semantics. *)

val peel_projections :
  (Relalg.Expr.t * string) list list ->
  Relalg.Physical.t ->
  (Relalg.Expr.t * string) list list * Relalg.Physical.t
(** Strip the projections the planner leaves above a group-by, innermost
    first (pass [[]] as the accumulator). *)

val merge_group_rows :
  n_keys:int ->
  aggs:Relalg.Aggregate.t list ->
  Runtime.result array ->
  Storage.Value.t array list
(** Merge partial group-by outputs (computed with
    {!Relalg.Aggregate.decompose}d aggregates) in partial order, keeping
    global first-occurrence group order and recombining each original
    aggregate from its merged partials. *)

val apply_projections :
  params:Storage.Value.t array ->
  (Relalg.Expr.t * string) list list ->
  Storage.Value.t array list ->
  Storage.Value.t array list
(** Apply peeled root projections, innermost first, to merged group rows. *)

val result_columns : Storage.Catalog.t -> Relalg.Physical.t -> string array
(** Output column names of a plan (from {!Relalg.Physical.schema}). *)

val run :
  domains:int ->
  ?morsel_size:int ->
  ?autotune:bool ->
  runner:runner ->
  ?prepare:preparer ->
  ?params:Storage.Value.t array ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  Runtime.result
(** Execute untraced with [domains] workers (clamped to the morsel count;
    [domains <= 1] or a non-parallelizable plan degrade to one plain
    sequential run).  [params] are needed only to evaluate projections the
    planner placed above a group-by (applied once to the merged groups).
    Worker catalogs are untraced views, so a hierarchy attached to [cat]
    records nothing during a parallel run.

    With [autotune] the morsel size is picked from one measured probe
    morsel (sized to ~1ms of work, rounded to the 4096-row alignment
    quantum, clamped so each domain keeps at least two morsels) and
    exported through the [parallel_morsel_size] gauge; an explicit
    [morsel_size] is only used when [autotune] is off. *)

val run_measured :
  ?cold:bool ->
  domains:int ->
  ?morsel_size:int ->
  runner:runner ->
  ?prepare:preparer ->
  ?params:Storage.Value.t array ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  Runtime.result * Memsim.Stats.t
(** Execute with per-domain hierarchy simulation and return the
    {!Memsim.Stats.merge} of all domains.  Parallel measured runs are always
    cold (each domain starts with empty caches); [cold] only controls the
    sequential fallback, as in {!Engine.run_measured}.  Without a hierarchy
    on [cat] the stats are all zero. *)
