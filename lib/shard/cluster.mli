(** A cluster of N simulated nodes, each owning a horizontal slice of every
    relation of a source catalog.

    Shard [k] of a table with [n] rows holds rows [k*n/N .. (k+1)*n/N) —
    the same contiguous carving the parallel executor's morsel ranges use —
    re-materialized into the node's own catalog, so each node has a private
    {!Memsim.Hierarchy.t}, arena, and (when durable) WAL + snapshot in a
    private {!Durability.Faultio} env.  The coordinator keeps a separate
    env holding only the 2PC decision log. *)

type node = {
  id : int;
  cat : Storage.Catalog.t;
  hier : Memsim.Hierarchy.t;
  env : Durability.Faultio.t;
  mutable wal : Durability.Wal.writer option;
      (** open writer when the cluster is durable *)
  mutable down : bool;
}

type t

val decision_store : string
(** Name of the coordinator's decision-log store inside its env. *)

val shard_range : shards:int -> shard:int -> int -> (int * int)
(** [(offset, length)] of a shard's slice of an [n]-row table. *)

val create :
  ?durable:bool ->
  ?envs:Durability.Faultio.t array ->
  ?coord_env:Durability.Faultio.t ->
  shards:int ->
  Storage.Catalog.t ->
  t
(** Scatter [cat] over [shards] nodes.  [durable] (default false) writes a
    per-node snapshot and opens a per-node WAL; [envs] / [coord_env]
    default to in-memory envs (pass {!Durability.Faultio.in_dir} envs for
    crash tests).  Scatter runs untraced — only query execution touches the
    simulated hierarchies. *)

val shards : t -> int
val nodes : t -> node array

val node : t -> int -> node
(** @raise Mrdb_util.Errors.Shard_unavailable if the node is marked down.
    @raise Invalid_argument on an out-of-range id. *)

val net : t -> Netsim.t
val durable : t -> bool
val coord_env : t -> Durability.Faultio.t
val coord_sink : t -> Durability.Faultio.sink option

val set_down : t -> int -> bool -> unit
(** Mark a node down/up (fault injection for {!Mrdb_util.Errors.Shard_unavailable} paths). *)

val fresh_txid : t -> int
(** Next cluster-wide transaction id (monotonic from 1). *)

val temp_name : t -> string
(** A fresh ["#tmpN"] name for exchange spill tables; ['#']-prefixed names
    never collide with user tables and are excluded from {!table_names}. *)

val table_names : t -> string list
(** Names of the scattered (non-temporary) relations, in catalog order. *)

val table_rows : t -> string -> Storage.Value.t array list
(** All rows of a table, shard 0's slice first — the union a single-node
    oracle is compared against.  Reads untraced. *)

val digests : t -> string list
(** Per-node {!Durability.Snapshot.digest}s of current contents, in shard
    order — the cross-check that recovery reconverges every node. *)

val close : t -> unit
(** Close per-node WAL writers and the coordinator sink. *)
