(* Crash recovery: load the latest valid snapshot, then replay the
   committed transactions of the WAL's clean prefix.

   Replay collects each transaction's operations between its Begin and
   Commit; Abort (or a missing Commit — torn tail, crash) discards them.
   Transactions whose id is at or below the snapshot watermark are already
   reflected in the snapshot (a crash can land between checkpoint-rename
   and WAL truncation) and are skipped.  Records at or beyond the scan's
   clean prefix (after a checksum-corrupt record) are never committed:
   applying transactions that follow a hole could replay effects out of
   order.  Each committed op is applied through [Storage.Write.apply], the
   interpretation every live writer shares.  Index contents are rebuilt
   from their definitions at the end: they are derived data, and replayed
   Load ops do not maintain them. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Schema = Storage.Schema

type result = {
  cat : Catalog.t;
  last_txid : int;  (** highest transaction id seen (committed or not) *)
  replayed : int;  (** committed transactions applied from the WAL *)
  clean_bytes : int;  (** byte length of the log prefix recovery read *)
  warnings : string list;
}

let m_recoveries =
  Obs.Metrics.counter "mrdb_recoveries_total" ~help:"Recovery runs"

let m_replayed =
  Obs.Metrics.counter "mrdb_recovery_replayed_txns_total"
    ~help:"Committed transactions replayed from the WAL during recovery"

let m_recovery_seconds =
  Obs.Metrics.histogram "mrdb_recovery_seconds"
    ~help:"Wall time of one recovery run (snapshot load + WAL replay)"

let run ?hier env =
  let t0 = Unix.gettimeofday () in
  let warnings = ref [] in
  let warn s = warnings := s :: !warnings in
  let cat, watermark =
    match Snapshot.read ?hier env with
    | Snapshot.Loaded (cat, last_txid) -> (cat, last_txid)
    | Snapshot.Missing -> (Catalog.create ?hier (), 0)
    | Snapshot.Invalid why ->
        warn (why ^ " — starting from an empty catalog");
        (Catalog.create ?hier (), 0)
  in
  let scanned = Wal.scan env in
  List.iter warn scanned.Wal.warnings;
  let pending : (int, Wal.op list) Hashtbl.t = Hashtbl.create 8 in
  let last_txid = ref watermark in
  let replayed = ref 0 in
  let poisoned = ref false in
  let untraced f =
    match hier with
    | Some h -> Memsim.Hierarchy.without_tracing h f
    | None -> f ()
  in
  let commit txid =
    match Hashtbl.find_opt pending txid with
    | None -> ()
    | Some ops ->
        Hashtbl.remove pending txid;
        if txid > watermark && not !poisoned then begin
          (try
             untraced (fun () ->
                 List.iter (Storage.Write.apply cat) (List.rev ops))
           with e ->
             warn
               (Printf.sprintf
                  "wal: replay of transaction %d failed (%s) — discarding \
                   it and the rest of the log"
                  txid (Printexc.to_string e));
             poisoned := true);
          if not !poisoned then incr replayed
        end
  in
  List.iteri
    (fun i record ->
      if i < scanned.Wal.clean then begin
        (match record with
        | Wal.Begin txid -> Hashtbl.replace pending txid []
        | Wal.Op { txid; op } -> (
            match Hashtbl.find_opt pending txid with
            | Some ops -> Hashtbl.replace pending txid (op :: ops)
            | None -> Hashtbl.replace pending txid [ op ])
        | Wal.Commit txid -> commit txid
        | Wal.Abort txid -> Hashtbl.remove pending txid
        | Wal.Prepare _ ->
            (* presumed abort: a prepared transaction with no Commit in this
               log is discarded here; sharded recovery resolves it against
               the coordinator's decision log before replaying. *)
            ());
        match record with
        | Wal.Begin txid | Wal.Op { txid; _ } | Wal.Commit txid
        | Wal.Abort txid | Wal.Prepare txid ->
            if txid > !last_txid then last_txid := txid
      end)
    scanned.Wal.records;
  (* discard still-open transactions (uncommitted at the crash) silently —
     that is exactly the contract; rebuild every index from its definition *)
  untraced (fun () ->
      List.iter
        (fun name ->
          let rel = Catalog.find cat name in
          let arity = Schema.arity (Relation.schema rel) in
          if arity > 0 && Catalog.index_defs cat name <> [] then
            Catalog.rebuild_indexes_for cat name
              ~attrs:(List.init arity Fun.id))
        (Catalog.names cat));
  Obs.Metrics.incr m_recoveries;
  Obs.Metrics.add m_replayed !replayed;
  Obs.Metrics.observe m_recovery_seconds (Unix.gettimeofday () -. t0);
  {
    cat;
    last_txid = !last_txid;
    replayed = !replayed;
    clean_bytes = scanned.Wal.clean_bytes;
    warnings = List.rev !warnings;
  }
