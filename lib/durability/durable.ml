(* The durability manager: logs the ops the catalog reports, flushed at
   commit boundaries.

   Transactions come from [Catalog.in_txn]; an op arriving outside one is
   auto-wrapped in its own Begin/Op/Commit (and flushed), so every durable
   mutation is covered without forcing callers to open transactions.
   Nested [in_txn] frames fold into the outermost one via a depth counter.

   Each op is logged as the writer handed it: nothing is read back from
   the relations, so enabling durability never perturbs the simulated
   memory counters.

   A simulated [Faultio.Crash] marks the manager dead: the exception
   propagates to the workload driver and every later event is ignored (the
   process is "gone"; only durable bytes survive). *)

module Catalog = Storage.Catalog

type t = {
  env : Faultio.t;
  cat : Catalog.t;
  mutable w : Wal.writer;
  mutable next_txid : int;
  mutable open_txid : int option;
  mutable depth : int;
  mutable dead : bool;
}

let fresh_txid t =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  txid

let handle t (ev : Catalog.event) =
  match ev with
  | Catalog.Begin ->
      t.depth <- t.depth + 1;
      if t.depth = 1 then begin
        let txid = fresh_txid t in
        t.open_txid <- Some txid;
        Wal.write t.w (Wal.Begin txid)
      end
  | Catalog.Commit ->
      t.depth <- t.depth - 1;
      if t.depth = 0 then begin
        match t.open_txid with
        | None -> ()
        | Some txid ->
            t.open_txid <- None;
            (* named commit-path crash points: before the Commit record
               exists (txn must be discarded by recovery) and after the
               flush (txn must survive).  These are logical boundaries the
               chaos tests pin by name. *)
            Faultio.point t.env "txn.pre_commit";
            Wal.write t.w (Wal.Commit txid);
            Wal.flush t.w;
            Faultio.point t.env "txn.post_commit"
      end
  | Catalog.Abort ->
      t.depth <- t.depth - 1;
      if t.depth = 0 then begin
        match t.open_txid with
        | None -> ()
        | Some txid ->
            t.open_txid <- None;
            Wal.write t.w (Wal.Abort txid);
            Wal.flush t.w
      end
  | Catalog.Op op -> (
      match t.open_txid with
      | Some txid -> Wal.write_op t.w ~txid op
      | None ->
          (* auto-wrap: a mutation outside any transaction frame is its own
             committed transaction *)
          let txid = fresh_txid t in
          Wal.write t.w (Wal.Begin txid);
          Wal.write_op t.w ~txid op;
          Wal.write t.w (Wal.Commit txid);
          Wal.flush t.w)

let observer t ev =
  if not t.dead then
    try handle t ev
    with Faultio.Crash _ as e ->
      t.dead <- true;
      raise e

let make env cat w ~next_txid =
  let t =
    { env; cat; w; next_txid; open_txid = None; depth = 0; dead = false }
  in
  Catalog.set_observer cat (observer t);
  t

let attach env cat =
  (* seed a snapshot of the current state so recovery has a base even if
     the process dies before the first checkpoint *)
  Snapshot.write env ~last_txid:0 cat;
  make env cat (Wal.create env) ~next_txid:1

let recover ?hier env =
  let r = Recover.run ?hier env in
  (* records appended after a torn or corrupt tail would be unreachable by
     replay: cut the log back to the prefix recovery read *)
  Wal.cut_to_clean env r.Recover.clean_bytes;
  let t =
    make env r.Recover.cat (Wal.append env)
      ~next_txid:(r.Recover.last_txid + 1)
  in
  (r, t)

let checkpoint t =
  Snapshot.write t.env ~last_txid:(t.next_txid - 1) t.cat;
  Wal.close t.w;
  t.w <- Wal.create t.env

let detach t =
  Catalog.clear_observer t.cat;
  Wal.close t.w

let catalog t = t.cat
