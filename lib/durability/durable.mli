(** The durability manager: observes the catalog (see
    {!Storage.Catalog.set_observer}) and writes each op it reports ahead to
    the log, as the writer handed it, flushing at commit boundaries.  Ops
    arriving outside a {!Storage.Catalog.in_txn} frame are auto-wrapped in
    their own committed transaction.  Nothing is read back from the
    relations, so enabling durability leaves the simulated memory counters
    untouched. *)

type t

val store_path : ?snapshot:string -> string -> string -> string
(** [store_path ?snapshot wal store] is the file that holds durable store
    [store] of the log [wal]: [wal] for the log, [snapshot] (default
    [wal ^ ".snapshot"]) for the snapshot, that name with [".tmp"] for the
    snapshot being written, and [wal ^ "." ^ store] for any other. *)

val files : ?snapshot:string -> string -> Faultio.t
(** The file-backed env over {!store_path}. *)

val attach : Faultio.t -> Storage.Catalog.t -> t
(** Start durability for a (possibly non-empty) catalog: seed a snapshot of
    its current state, truncate the WAL, and register the observer. *)

val recover : ?hier:Memsim.Hierarchy.t -> Faultio.t -> Recover.result * t
(** Recover from the env's durable state, cut a torn or corrupt log back to
    the clean prefix recovery replayed, then attach to the recovered
    catalog (appending to the surviving log). *)

val checkpoint : t -> unit
(** Snapshot the current state (untraced) and truncate the WAL.  Crash-safe
    at every intermediate point: the snapshot becomes durable only via an
    atomic rename, and its watermark makes replay of a stale log a no-op. *)

val detach : t -> unit
(** Unregister the observer and close the log. *)

val catalog : t -> Storage.Catalog.t
