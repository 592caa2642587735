(** Distributed plan costing: prices hypothetical exchange traffic with the
    {!Netsim} atoms — the same CPU-cycle currency as the local cache cost
    model — so shuffle vs broadcast is one comparison of cycle estimates.
    Cardinalities are summed over the live per-shard catalogs, so estimates
    track DML instead of going stale with the planning catalog. *)

type method_ = Broadcast | Shuffle

val method_name : method_ -> string

type join_costing = {
  chosen : method_;
  build_rows : int;
  probe_rows : int;
  shuffle_bytes : int;
  shuffle_msgs : int;
  shuffle_cycles : int;
  broadcast_bytes : int;
  broadcast_msgs : int;
  broadcast_cycles : int;
      (** network cycles plus the extra local build work broadcast pays *)
}

val join_costing :
  Cluster.t -> build:Relalg.Physical.t -> probe:Relalg.Physical.t -> join_costing
(** Cost both exchange strategies for a hash join and pick the cheaper
    (ties go to broadcast, which preserves global row order). *)

type agg_costing = {
  naive_bytes : int;  (** ship every input row to the coordinator *)
  partial_bytes : int;  (** ship one decomposed group row per shard-group *)
}

val agg_costing :
  Cluster.t -> child:Relalg.Physical.t -> gb:Relalg.Physical.t -> agg_costing
