(** Snapshots: checksummed serialization of the full catalog — schemas,
    layouts, encodings, row contents, index definitions — plus the WAL
    watermark (last transaction id covered).

    Checkpoints write to a temporary store, flush, then atomically rename
    over the previous snapshot, so at every crash point exactly one valid
    snapshot exists.  Index contents are derived data: recovery rebuilds
    them from the stored definitions. *)

val store_name : string
val tmp_name : string

val serialize_state : Storage.Catalog.t -> string
(** Canonical catalog-state bytes (tables sorted by name, rows in tid
    order, each field as {!Codec.value} writes it, index definitions
    sorted): two catalogs are value-identical iff their states serialize
    equally.  Untraced. *)

val serialize_payload : last_txid:int -> Storage.Catalog.t -> string
(** Watermark + state (unframed, without magic) — what round-trips through
    {!deserialize_payload}. *)

val deserialize_payload :
  ?hier:Memsim.Hierarchy.t -> string -> Storage.Catalog.t * int
(** Rebuild a catalog (and its watermark) from {!serialize_payload} bytes.
    Runs untraced.  @raise Codec.Truncated on malformed input, including
    an index definition naming an attribute its schema lacks. *)

val digest : Storage.Catalog.t -> string
(** Hex digest of {!serialize_state} — the value-identity oracle used by
    the recovery tests. *)

val write : Faultio.t -> last_txid:int -> Storage.Catalog.t -> unit
(** Serialize into one presized frame (Plain fields copied straight from
    the partition bytes, the length + CRC-32 header patched in place),
    write it to [tmp_name] as header and payload, flush, and atomically
    rename to [store_name].  Untraced. *)

type read_result =
  | Loaded of Storage.Catalog.t * int  (** catalog and its WAL watermark *)
  | Missing
  | Invalid of string

val read : ?hier:Memsim.Hierarchy.t -> Faultio.t -> read_result
(** Validate and load the durable snapshot.  Never raises. *)
