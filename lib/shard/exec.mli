(** The distributed executor: physical plans over a {!Cluster}.

    Scan/select/project pipelines run unchanged per shard and union at the
    coordinator; group-bys distribute with decomposed aggregates (one group
    row per shard-group on the wire); hash joins exchange their inputs by
    whichever of shuffle and broadcast the {!Cost} model prices cheaper and
    then run through the unmodified local engine over a shadow catalog;
    sorts/limits apply at the coordinator; DML commits through {!Twopc};
    everything else falls back to shipping the base tables.  Results are
    identical (as multisets; identical outright under a total sort) to a
    single-node run of the same plan. *)

val run :
  ?engine:Engines.Engine.kind ->
  ?params:Storage.Value.t array ->
  ?coord:Storage.Catalog.t ->
  Cluster.t ->
  Relalg.Physical.t ->
  Engines.Runtime.result
(** [coord] supplies the coordinator's hierarchy and arena (for sort/merge
    work and the [#net] span); without it coordinator work is untraced.
    @raise Mrdb_util.Errors.Shard_unavailable if a needed shard is down. *)

type measured = {
  stats : Memsim.Stats.t;
      (** per-shard {!Memsim.Stats.merge}: traffic sums, slowest shard's
          cycles (the simulated wall-clock) *)
  net_messages : int;
  net_bytes : int;
  net_cycles : int;
}

val total_cycles : measured -> int
(** Slowest shard's simulated cycles plus the interconnect cycles. *)

val run_measured :
  ?engine:Engines.Engine.kind ->
  ?params:Storage.Value.t array ->
  ?coord:Storage.Catalog.t ->
  Cluster.t ->
  Relalg.Physical.t ->
  Engines.Runtime.result * measured
(** Reset per-shard hierarchies (counters and caches), execute, and
    collect merged shard stats ({!Engines.Parallel.measure}) plus the
    interconnect delta.
    When [coord] carries a hierarchy the net cycles are charged to it
    inside an [Obs.Profile] ["#net"] phase, so [explain --analyze] shows
    the interconnect as its own span. *)

val describe : Cluster.t -> Relalg.Physical.t -> string
(** The distributed strategy, with the cost model's shuffle/broadcast and
    naive/partial-aggregation estimates — the [explain] section.  It is
    worked out by the same function {!run} executes, so it names what runs. *)
