(* Inter-shard exchange messages: one message per line, reusing the percent
   escaping and tagged value codec of the server's [Txn.Wire] protocol —
   there is deliberately no second ad-hoc codec.  Rows are space-separated
   fields of [Wire.encode_values] (whose output never contains a space);
   2PC control messages are plain tagged lines; transaction operations ride
   as [Wal.encode]d records (the binary codec recovery already speaks),
   percent-escaped into one field.

     ROWS r1 r2 ...          (ri = v1|v2|..., "~" for a zero-column row)
     PREPARE txid shard op1 op2 ...
     VOTE txid shard commit|abort
     DECIDE txid commit|abort
     ACK txid shard *)

module Wire = Txn.Wire
module Wal = Durability.Wal
module Errors = Mrdb_util.Errors

type msg =
  | Rows of Storage.Value.t array list
  | Prepare of { txid : int; shard : int; ops : Wal.op list }
  | Vote of { txid : int; shard : int; commit : bool }
  | Decide of { txid : int; commit : bool }
  | Ack of { txid : int; shard : int }

(* A zero-column row would encode as the empty field, which space-splitting
   cannot carry; "~" is safe as a marker because every non-empty value
   encoding is at least two characters ("i:..") or the literal "null". *)
let encode_row row =
  if Array.length row = 0 then "~" else Wire.encode_values row

let decode_row s =
  if s = "~" then [||] else Wire.decode_values s

(* Every refusal of [parse] is a [Bad_request], as [Wire]'s are. *)
let bad fmt = Printf.ksprintf (fun s -> raise (Errors.Bad_request s)) fmt

let verdict b = if b then "commit" else "abort"

let parse_verdict = function
  | "commit" -> true
  | "abort" -> false
  | s -> bad "exchange: bad verdict %S" s

let encode_op op = Wire.escape (Wal.encode (Wal.Op { txid = 0; op }))

let decode_op s =
  match Wal.decode_string (Wire.unescape s) with
  | Wal.Op { op; _ } -> op
  | _ -> bad "exchange: PREPARE field is not an operation record"
  | exception Durability.Codec.Truncated what ->
      bad "exchange: undecodable operation field (%s)" what

let encode = function
  | Rows rows ->
      String.concat " " ("ROWS" :: List.map encode_row rows)
  | Prepare { txid; shard; ops } ->
      String.concat " "
        (Printf.sprintf "PREPARE %d %d" txid shard
        :: List.map encode_op ops)
  | Vote { txid; shard; commit } ->
      Printf.sprintf "VOTE %d %d %s" txid shard (verdict commit)
  | Decide { txid; commit } ->
      Printf.sprintf "DECIDE %d %s" txid (verdict commit)
  | Ack { txid; shard } -> Printf.sprintf "ACK %d %d" txid shard

let int_field what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> bad "exchange: bad %s %S" what s

let parse line =
  match String.split_on_char ' ' (String.trim line) with
  | "ROWS" :: rows -> Rows (List.map decode_row rows)
  | "PREPARE" :: txid :: shard :: ops ->
      Prepare
        {
          txid = int_field "txid" txid;
          shard = int_field "shard" shard;
          ops = List.map decode_op ops;
        }
  | [ "VOTE"; txid; shard; v ] ->
      Vote
        {
          txid = int_field "txid" txid;
          shard = int_field "shard" shard;
          commit = parse_verdict v;
        }
  | [ "DECIDE"; txid; v ] ->
      Decide { txid = int_field "txid" txid; commit = parse_verdict v }
  | [ "ACK"; txid; shard ] ->
      Ack { txid = int_field "txid" txid; shard = int_field "shard" shard }
  | _ -> bad "exchange: bad message %S" line

let bytes m = String.length (encode m)

(* Batch size for row shipment: rows per ROWS message.  Large enough that
   the per-message latency atom amortizes, small enough that a shard
   overlaps compute with transfer. *)
let batch_rows = 256

(* Account a row stream from [src] to [dst]: the payload bytes of the ROWS
   messages it takes, one message per [batch_rows] (at least one, so an
   empty result still costs its latency).  Only the byte count is needed,
   so rows are sized without materializing the batch strings. *)
let send_rows net ~src ~dst rows =
  if src <> dst then begin
    let header = String.length "ROWS" in
    let count = ref 0 and len = ref header and sent = ref false in
    let flush () =
      Netsim.send net ~src ~dst ~bytes:!len;
      sent := true;
      count := 0;
      len := header
    in
    List.iter
      (fun r ->
        incr count;
        len := !len + 1 + String.length (encode_row r);
        if !count = batch_rows then flush ())
      rows;
    if !count > 0 || not !sent then flush ()
  end
