(** Two-phase commit over the per-shard WALs (presumed abort).

    A durable participant logs [Begin / Op* / Prepare] and flushes before
    voting; the coordinator makes a COMMIT decision durable (one decision-
    log line via {!Recovery.log_decision}) before any participant learns
    the outcome; phase 2 logs [Commit]/[Abort] per participant and applies
    committed operations, untraced, through {!Storage.Write.apply_all} —
    the interpretation crash recovery replays with.

    Named {!Durability.Faultio} crash points bracket every step:
    ["2pc.part.pre_prepare"], ["2pc.part.prepared"] (participant, around
    the prepare flush), ["2pc.coord.pre_decide"], ["2pc.coord.decided"]
    (coordinator, around the decision write), ["2pc.part.pre_resolve"]
    (participant, before the outcome record) — plus the write/flush
    boundaries the logs themselves count. *)

type outcome = {
  txid : int;
  committed : bool;
  participants : int list;  (** shards with at least one operation *)
  votes : (int * bool) list;
}

val execute :
  ?vote:(int -> bool) ->
  Cluster.t ->
  (int * Storage.Write.op list) list ->
  outcome
(** Run one distributed transaction: [(shard, ops)] per participant (empty
    op lists are dropped; no participants → trivial commit).  [vote]
    (test hook, default [fun _ -> true]) lets a participant veto, driving
    the abort path.

    @raise Mrdb_util.Errors.Shard_unavailable if a participant is down —
    checked before any durable write, so the transaction is atomically
    nothing.
    @raise Mrdb_util.Errors.Bad_request if an operation could not apply on
    its participant ({!Storage.Write.check}) — likewise before any durable
    write.
    @raise Durability.Faultio.Crash under a crash plan; the caller then
    recovers via {!Recovery.recover_cluster}. *)
