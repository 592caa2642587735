(** Crash recovery: latest valid snapshot + replay of the WAL's committed
    clean prefix.  Uncommitted transactions and torn tails are discarded;
    a checksum-corrupt record is skipped with a warning and taints the rest
    of the log.  Index contents are rebuilt (they are derived data). *)

type result = {
  cat : Storage.Catalog.t;
  last_txid : int;  (** highest transaction id seen (committed or not) *)
  replayed : int;  (** committed transactions applied from the WAL *)
  warnings : string list;
}

val run : ?hier:Memsim.Hierarchy.t -> Faultio.t -> result
(** Never raises on corrupt or missing durable state — the worst case is an
    empty catalog plus warnings. *)
