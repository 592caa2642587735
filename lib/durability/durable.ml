(* The durability manager: observes catalog mutations and turns them into
   write-ahead-log records, flushed at commit boundaries.

   Transactions come from [Catalog.in_txn]; an operation arriving outside
   one is auto-wrapped in its own Begin/Op/Commit (and flushed), so every
   durable mutation is covered without forcing callers to open
   transactions.  Nested [in_txn] frames fold into the outermost one via a
   depth counter.

   Event payload reads (tuple values for appends and loads) happen under
   [without_tracing], so enabling durability never perturbs the simulated
   memory counters — logging is strictly additive off the hot path.

   A simulated [Faultio.Crash] marks the manager dead: the exception
   propagates to the workload driver and every later notification is
   ignored (the process is "gone"; only durable bytes survive). *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Write = Storage.Write

type t = {
  env : Faultio.t;
  cat : Catalog.t;
  mutable w : Wal.writer;
  mutable next_txid : int;
  mutable open_txid : int option;
  mutable depth : int;
  mutable dead : bool;
  mutable committed : int;
}

let untraced t f =
  match Catalog.hier t.cat with
  | Some h -> Memsim.Hierarchy.without_tracing h f
  | None -> f ()

let op_of_event t (ev : Catalog.obs_event) : Wal.op option =
  match ev with
  | Catalog.Obs_begin | Catalog.Obs_commit | Catalog.Obs_abort -> None
  | Catalog.Obs_create_relation { table } ->
      let rel = Catalog.find t.cat table in
      Some
        (Write.Create_relation
           {
             table;
             schema = Relation.schema rel;
             layout = Layout.to_groups (Relation.layout rel);
             encodings = Relation.encodings rel;
           })
  | Catalog.Obs_append { table; rel; tid } ->
      let values = untraced t (fun () -> Relation.get_tuple rel tid) in
      Some (Write.Append { table; values })
  | Catalog.Obs_load { table; row_lo; rows } ->
      let rel = Catalog.find t.cat table in
      let rows =
        untraced t (fun () ->
            Array.init rows (fun i -> Relation.get_tuple rel (row_lo + i)))
      in
      Some (Write.Load { table; rows })
  | Catalog.Obs_update { table; tid; attr; value } ->
      Some (Write.Update { table; tid; attr; value })
  | Catalog.Obs_set_layout { table; layout } ->
      Some (Write.Set_layout { table; layout = Layout.to_groups layout })
  | Catalog.Obs_set_physical { table; layout; encodings } ->
      Some
        (Write.Set_physical
           { table; layout = Layout.to_groups layout; encodings })
  | Catalog.Obs_create_index { table; iname; kind; attrs } ->
      Some (Write.Create_index { table; iname; kind; attrs })

let fresh_txid t =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  txid

let handle t ev =
  match (ev : Catalog.obs_event) with
  | Catalog.Obs_begin ->
      t.depth <- t.depth + 1;
      if t.depth = 1 then begin
        let txid = fresh_txid t in
        t.open_txid <- Some txid;
        Wal.write t.w (Wal.Begin txid)
      end
  | Catalog.Obs_commit ->
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
            t.committed <- t.committed + 1;
            Faultio.point t.env "txn.post_commit"
      end
  | Catalog.Obs_abort ->
      t.depth <- t.depth - 1;
      if t.depth = 0 then begin
        match t.open_txid with
        | None -> ()
        | Some txid ->
            t.open_txid <- None;
            Wal.write t.w (Wal.Abort txid);
            Wal.flush t.w
      end
  | _ -> (
      match op_of_event t ev with
      | None -> ()
      | Some op -> (
          match t.open_txid with
          | Some txid -> Wal.write t.w (Wal.Op { txid; op })
          | None ->
              (* auto-wrap: a mutation outside any transaction frame is its
                 own committed transaction *)
              let txid = fresh_txid t in
              Wal.write t.w (Wal.Begin txid);
              Wal.write t.w (Wal.Op { txid; op });
              Wal.write t.w (Wal.Commit txid);
              Wal.flush t.w;
              t.committed <- t.committed + 1))

let observer t ev =
  if not t.dead then
    try handle t ev
    with Faultio.Crash _ as e ->
      t.dead <- true;
      raise e

let make env cat w ~next_txid =
  let t =
    {
      env;
      cat;
      w;
      next_txid;
      open_txid = None;
      depth = 0;
      dead = false;
      committed = 0;
    }
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
  let t = make env r.Recover.cat (Wal.append env) ~next_txid:(r.Recover.last_txid + 1) in
  (r, t)

let checkpoint t =
  Snapshot.write t.env ~last_txid:(t.next_txid - 1) t.cat;
  Wal.close t.w;
  t.w <- Wal.create t.env

let detach t =
  Catalog.clear_observer t.cat;
  Wal.close t.w

let catalog t = t.cat
let committed t = t.committed
let wal_records t = Wal.records_written t.w
let wal_bytes t = Wal.bytes_written t.w
