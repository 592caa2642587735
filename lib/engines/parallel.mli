(** Morsel-driven parallel query execution on OCaml 5 domains.

    The scanned relation is split into fixed-size row ranges (morsels);
    worker domains pull morsel indices from per-domain ranges, stealing
    from each other when untraced (a measured run keeps each domain to its
    own share, so its counts repeat), and step the base engine's prepared
    pipeline (see {!preparer}) over a shadow catalog in which the driver
    table is a {!type:Storage.Relation.t} slice of the morsel's rows.  Per-morsel partial
    results merge deterministically in morsel order:

    - scan/select/project pipelines concatenate their row lists, and
    - group-bys run with {!Relalg.Aggregate.decompose}d aggregates per
      morsel and recombine the partials, keeping global first-occurrence
      group order —

    so the merged result is identical to a sequential run of the same plan
    (bit-identical for integer aggregates; floating-point sums may differ in
    the last bits because addition is reassociated).

    Plans without a full-scan driver pipeline (joins, sorts, limits, index
    access, DML) run as one prepared pipeline over the whole catalog.

    Simulated measurement composes per domain: every worker gets a private
    {!Memsim.Hierarchy.t} (same parameters as the catalog's) plus a private
    address arena, and the per-domain counters combine with
    {!Memsim.Stats.merge} — traffic and misses sum, cycle cost is the
    slowest domain (the simulated wall-clock).  In untraced mode the shadow
    catalogs carry no hierarchy at all, so worker domains share nothing
    mutable and real multicore speedups are measurable. *)

type preparer =
  Storage.Catalog.t -> Relalg.Physical.t -> unit -> Runtime.result
(** An engine's way in: the returned thunk is one run of the plan over
    the catalog's current contents.  Jit and Compiled compile once and
    re-step ({!Jit.prepare}, {!Compiled.prepare}); {!Engine} gives the
    other engines [fun () -> run].  The morsel loop prepares once per
    worker and calls the thunk per morsel over the resliced driver view. *)

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

val derived_morsel_size : rows:int -> domains:int -> int
(** The morsel size a run uses when the caller gives none: a 32nd of each
    domain's share of the driver table's [rows], rounded down to a
    multiple of 4096 and at least 4096.  Starting every morsel
    at a multiple of 4096 rows keeps it cache-line and TLB-page aligned
    in every partition, so a measured parallel scan counts the same
    misses as a sequential one. *)

val morsel_size_gauge : unit -> Obs.Metrics.gauge
(** The [parallel_morsel_size] gauge: every morsel-parallel run sets it to
    the rows per morsel it used; a run that is not split leaves it as it
    was. *)

val measure :
  Memsim.Hierarchy.t list -> (unit -> 'a) -> 'a * Memsim.Stats.t
(** [measure hiers f] resets each hierarchy (counters and caches), runs
    [f] and returns its result with the {!Memsim.Stats.merge} of their
    counters: traffic sums, cycles are the slowest hierarchy's.  With no
    hierarchy it only runs [f], and the stats are all zero. *)

val run :
  domains:int ->
  ?morsel_size:int ->
  prepare:preparer ->
  ?params:Storage.Value.t array ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  Runtime.result
(** Execute untraced with [domains] workers (clamped to the morsel count).
    With [domains <= 1], or a plan without a morsel shape, the plan runs
    as one prepared pipeline over [cat].  [morsel_size] defaults to
    {!derived_morsel_size} of the driver table; every morsel-parallel run
    records the size it used in the [parallel_morsel_size] gauge.
    [params] are needed only to evaluate projections the planner placed
    above a group-by (applied once to the merged groups).  Worker catalogs
    are untraced views, so a hierarchy attached to [cat] records nothing
    from the morsels; a run on one domain traces as [cat] does (wrap it in
    {!Memsim.Hierarchy.without_tracing} for a wall-clock run). *)

val run_measured :
  domains:int ->
  ?morsel_size:int ->
  prepare:preparer ->
  ?params:Storage.Value.t array ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  Runtime.result * Memsim.Stats.t
(** {!run}, measured cold: a one-pipeline run resets [cat]'s hierarchy
    first and returns its counters; a morsel-parallel run gives every
    worker a fresh hierarchy with the same parameters and returns their
    {!measure}d merge.  Without a hierarchy on [cat] the stats are all
    zero. *)
