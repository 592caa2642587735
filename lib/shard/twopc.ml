(* Two-phase commit over the per-shard WALs.

   Phase 1 sends each participant its operations (a PREPARE exchange
   message); a durable participant logs Begin / Op* / Prepare and flushes
   before voting — after that flush it may no longer abort unilaterally.
   The coordinator collects votes, makes the decision durable (presumed
   abort: only COMMIT decisions are written, as one decision-log line,
   before any participant learns the outcome), then phase 2 logs the
   outcome on every participant and applies committed operations through
   [Storage.Write.apply_all] — the interpretation crash recovery replays
   with, so live commit and post-crash replay cannot disagree.  Every
   operation is checked against its participant before phase 1, so a
   write set that could not apply is refused before anything is logged.

   Named crash points bracket every protocol step ("2pc.part.pre_prepare",
   "2pc.part.prepared", "2pc.coord.pre_decide", "2pc.coord.decided",
   "2pc.part.pre_resolve"), in addition to the write/flush boundaries the
   logs themselves count; the recovery matrix test enumerates them all. *)

module Faultio = Durability.Faultio
module Wal = Durability.Wal
module Write = Storage.Write

type outcome = {
  txid : int;
  committed : bool;
  participants : int list;
  votes : (int * bool) list;
}

let execute ?(vote = fun _ -> true) cl shard_ops =
  let shard_ops =
    List.filter (fun (_, ops) -> ops <> []) shard_ops
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let txid = Cluster.fresh_txid cl in
  if shard_ops = [] then
    (* nothing to do anywhere: trivially committed, no durable traffic *)
    { txid; committed = true; participants = []; votes = [] }
  else begin
    let net = Cluster.net cl in
    let durable = Cluster.durable cl in
    (* resolve participants up front: a down shard fails the transaction
       with [Shard_unavailable] before any durable write, keeping it
       trivially atomic *)
    let nodes =
      List.map (fun (s, ops) -> (Cluster.node cl s, ops)) shard_ops
    in
    List.iter
      (fun ((node : Cluster.node), ops) -> List.iter (Write.check node.cat) ops)
      nodes;
    (* phase 1: prepare *)
    let votes =
      List.map
        (fun ((node : Cluster.node), ops) ->
          Netsim.send net ~src:Netsim.coordinator ~dst:node.id
            ~bytes:
              (Exchange.bytes (Exchange.Prepare { txid; shard = node.id; ops }));
          if durable then begin
            Faultio.point node.env "2pc.part.pre_prepare";
            (match node.wal with
            | Some w ->
                Wal.write w (Wal.Begin txid);
                List.iter (fun op -> Wal.write w (Wal.Op { txid; op })) ops;
                Wal.write w (Wal.Prepare txid);
                Wal.flush w
            | None -> ());
            Faultio.point node.env "2pc.part.prepared"
          end;
          let v = vote node.id in
          Netsim.send net ~src:node.id ~dst:Netsim.coordinator
            ~bytes:
              (Exchange.bytes
                 (Exchange.Vote { txid; shard = node.id; commit = v }));
          (node.id, v))
        nodes
    in
    let commit = List.for_all snd votes in
    (* the decision becomes durable before any participant learns it *)
    if durable then begin
      let coord = Cluster.coord_env cl in
      Faultio.point coord "2pc.coord.pre_decide";
      if commit then (
        match Cluster.coord_sink cl with
        | Some sink -> Recovery.log_decision sink ~txid ~commit:true
        | None -> ());
      Faultio.point coord "2pc.coord.decided"
    end;
    (* phase 2: resolve every participant *)
    List.iter
      (fun ((node : Cluster.node), ops) ->
        Netsim.send net ~src:Netsim.coordinator ~dst:node.id
          ~bytes:(Exchange.bytes (Exchange.Decide { txid; commit }));
        if durable then begin
          Faultio.point node.env "2pc.part.pre_resolve";
          match node.wal with
          | Some w ->
              Wal.write w (if commit then Wal.Commit txid else Wal.Abort txid);
              Wal.flush w
          | None -> ()
        end;
        (* mutation is bookkeeping, not simulated query work *)
        if commit then
          Memsim.Hierarchy.without_tracing node.hier (fun () ->
              Write.apply_all node.cat ops);
        Netsim.send net ~src:node.id ~dst:Netsim.coordinator
          ~bytes:(Exchange.bytes (Exchange.Ack { txid; shard = node.id })))
      nodes;
    {
      txid;
      committed = commit;
      participants = List.map fst votes;
      votes;
    }
  end
