(** The write-ahead log: length-prefixed, checksummed, transaction-framed
    records for every logical mutation of the catalog.

    Wire format per record: [u32 payload length | u32 CRC-32 | payload].
    Commit is the durability point — the manager flushes on commit, so a
    crash only loses or tears uncommitted records, which recovery discards
    anyway. *)

type op = Storage.Write.op
(** A logged operation: the catalog's write vocabulary, applied on replay
    by {!Storage.Write.apply}. *)

type record =
  | Begin of int
  | Commit of int
  | Abort of int
  | Op of { txid : int; op : op }
  | Prepare of int
      (** Two-phase commit vote: the transaction's operations are durable on
          this participant and it may no longer abort unilaterally.
          Single-node recovery treats a prepared-but-undecided transaction
          as aborted (presumed abort); sharded recovery resolves it against
          the coordinator's decision log. *)

val encode : record -> string
(** Payload bytes (unframed). *)

val decode_string : string -> record
(** Inverse of {!encode}. @raise Codec.Truncated on malformed payloads. *)

val store_name : string
(** The {!Faultio} store the log lives in (["wal"]). *)

(** {2 Writer} *)

type writer

val create : Faultio.t -> writer
(** Truncate the log and open it for writing. *)

val append : Faultio.t -> writer
(** Open the existing log for appending. *)

val write : writer -> record -> unit
(** Frame and buffer one record (durable only after {!flush}). *)

val flush : writer -> unit
val close : writer -> unit
val records_written : writer -> int
val bytes_written : writer -> int

(** {2 Scanning} *)

type scanned = {
  records : record list;  (** every decodable record, in log order *)
  clean : int;
      (** number of leading records before the first corruption; replay
          must not commit anything at or beyond this index *)
  clean_bytes : int;
      (** byte length of the clean prefix; a writer that needs appended
          records to be reachable by replay (in-doubt settlement) must
          truncate a torn or corrupt log here before appending *)
  warnings : string list;
}

val scan : Faultio.t -> scanned
(** Read the durable log.  A torn tail ends the scan; a checksum-mismatched
    record is skipped with a warning and taints the remainder (see
    {!scanned.clean}).  Never raises. *)
