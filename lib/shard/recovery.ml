(* Sharded crash recovery: per-node snapshot + WAL replay, with in-doubt
   transactions settled against the coordinator's decision log.

   Presumed abort: the coordinator logs only COMMIT decisions (one durable
   newline-terminated [Exchange.Decide] line before phase 2 starts); a
   prepared transaction with no decision line aborted.  A node's WAL can
   therefore end with [Prepare txid] and nothing else — single-node
   [Recover.run] would discard it, but here the decision log is consulted
   first and the outcome appended to the node's log, so replay then applies
   it like any locally-decided transaction.  A torn tail of the decision
   log (no trailing newline) is an un-durable decision and reads as
   absent. *)

module Faultio = Durability.Faultio
module Wal = Durability.Wal
module Recover = Durability.Recover
module Errors = Mrdb_util.Errors

let log_decision sink ~txid ~commit =
  Faultio.write sink (Exchange.encode (Exchange.Decide { txid; commit }) ^ "\n");
  Faultio.flush sink

let decisions env =
  match Faultio.read_all env Cluster.decision_store with
  | None -> []
  | Some buf ->
      let lines = String.split_on_char '\n' (Bytes.to_string buf) in
      (* the final split element is "" after a trailing newline and a torn
         partial line otherwise; either way it is not a durable decision *)
      let rec complete = function
        | [] | [ _ ] -> []
        | l :: rest -> l :: complete rest
      in
      List.filter_map
        (fun l ->
          match Exchange.parse l with
          | Exchange.Decide { txid; commit } -> Some (txid, commit)
          | _ -> None
          | exception Errors.Bad_request _ -> None)
        (complete lines)

(* Prepared-but-undecided transaction ids in the clean prefix of a log. *)
let in_doubt (scanned : Wal.scanned) =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
      if i < scanned.clean then
        match r with
        | Wal.Prepare txid -> Hashtbl.replace tbl txid ()
        | Wal.Commit txid | Wal.Abort txid -> Hashtbl.remove tbl txid
        | Wal.Begin _ | Wal.Op _ -> ())
    scanned.records;
  Hashtbl.fold (fun txid () acc -> txid :: acc) tbl [] |> List.sort compare

let in_doubt_txids env = in_doubt (Wal.scan env)

type settled = { txid : int; committed : bool }

let recover_node ?hier ?decisions:ds env =
  let scanned = Wal.scan env in
  let doubts = in_doubt scanned in
  let settled =
    match ds with
    | Some ds ->
        List.map
          (fun txid ->
            let committed =
              match List.assoc_opt txid ds with
              | Some c -> c
              | None -> false (* presumed abort *)
            in
            { txid; committed })
          doubts
    | None ->
        if doubts <> [] then
          raise
            (Errors.Txn_indoubt
               (Printf.sprintf
                  "transactions %s prepared on this shard but the \
                   coordinator decision log is unreachable"
                  (String.concat ", "
                     (List.map string_of_int doubts))));
        []
  in
  (* Settle by appending the decision to the node's own log; replay then
     treats the transaction exactly like a locally-decided one.  The log
     may end in a torn or corrupt tail (a commit record cut mid-write, for
     instance) — replay desyncs there, so the tail must go or the appended
     settlements would be unreachable and a decided-commit transaction
     would silently abort on this shard only. *)
  if settled <> [] then begin
    Wal.cut_to_clean env scanned.Wal.clean_bytes;
    let w = Wal.append env in
    List.iter
      (fun s ->
        Wal.write w (if s.committed then Wal.Commit s.txid else Wal.Abort s.txid))
      settled;
    Wal.flush w;
    Wal.close w
  end;
  (Recover.run ?hier env, settled)

type cluster_result = {
  results : Recover.result array;  (** per shard, in shard order *)
  settled : (int * settled) list;  (** (shard, settlement) for in-doubt txns *)
}

let recover_cluster ?hier envs coord =
  let ds = decisions coord in
  let settled = ref [] in
  let results =
    Array.mapi
      (fun k env ->
        let r, s = recover_node ?hier ~decisions:ds env in
        settled := !settled @ List.map (fun x -> (k, x)) s;
        r)
      envs
  in
  { results; settled = !settled }
