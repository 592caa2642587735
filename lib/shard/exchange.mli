(** Inter-shard exchange messages, framed with the percent-escaped line
    protocol of {!Txn.Wire} (no second ad-hoc codec): row shipments for
    distributed query exchanges and the two-phase-commit control
    vocabulary.  Transaction operations ride inside [PREPARE] as
    {!Durability.Wal.encode}d records, percent-escaped into one field. *)

type msg =
  | Rows of Storage.Value.t array list
  | Prepare of { txid : int; shard : int; ops : Durability.Wal.op list }
  | Vote of { txid : int; shard : int; commit : bool }
  | Decide of { txid : int; commit : bool }
  | Ack of { txid : int; shard : int }

val encode : msg -> string
(** One line, newline-free. *)

val parse : string -> msg
(** Inverse of {!encode}.
    @raise Mrdb_util.Errors.Bad_request on a malformed line, and nothing
    else: a bad field, a bad value, or a [PREPARE] operation that does not
    decode as a {!Durability.Wal} operation record. *)

val bytes : msg -> int
(** Wire size of the encoded message — the unit the {!Netsim} bandwidth
    atom charges. *)

val batch_rows : int
(** Rows per [ROWS] message when shipping a result stream (256). *)

val send_rows :
  Netsim.t -> src:int -> dst:int -> Storage.Value.t array list -> unit
(** Account the shipment of a row stream: payload bytes of the [ROWS]
    messages it takes at {!batch_rows} rows per message (an empty stream
    still costs one message).  [src = dst] costs nothing. *)
