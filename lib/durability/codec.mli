(** Binary wire-format helpers shared by the WAL and snapshots.

    Little-endian, length-prefixed.  Readers raise {!Truncated} instead of
    returning partial data — on a read past the end and on any malformed
    field (an unknown tag or code) — so callers can tell a torn or corrupt
    record apart from valid ones. *)

exception Truncated of string

(** {2 Writer} *)

type writer
(** A growable byte cursor. *)

val writer : ?size:int -> unit -> writer
(** An empty writer with room for [size] bytes before it regrows. *)

val length : writer -> int
(** Bytes written so far. *)

val reset : writer -> unit
(** Empty the writer, keeping its capacity. *)

val contents : writer -> string

val unsafe_bytes : writer -> Bytes.t
(** The backing store; its first {!length} bytes are the contents.  Valid
    until the next write, which may replace it. *)

val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val i64 : writer -> int -> unit

val raw : writer -> string -> unit
(** The bytes of the string, without a length prefix. *)

val str : writer -> string -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

val value : writer -> Storage.Value.t -> unit
(** A one-byte tag and its payload; dispatches to the emitters below. *)

(** Unboxed value emitters — the same tag-and-payload bytes as {!value},
    from fields that were never boxed into a {!Storage.Value.t}. *)

val vnull : writer -> unit
val vint : writer -> int -> unit

val vfloat_sub : writer -> Bytes.t -> pos:int -> unit
(** A float given by its 8 IEEE bytes, little-endian, at [pos]: the bits
    are copied as they are. *)

val vbool : writer -> bool -> unit
val vdate : writer -> int -> unit

val vstr_sub : writer -> Bytes.t -> pos:int -> len:int -> unit
(** A string value copied from a byte range. *)

val schema : writer -> Storage.Schema.t -> unit
val layout_groups : writer -> int list list -> unit
val encodings : writer -> (int * Storage.Encoding.t) list -> unit
val index_kind : writer -> Storage.Index.kind -> unit

(** {2 Frames}

    [u32 payload length | u32 CRC-32 of payload | payload] — the record
    format of the WAL and of the snapshot store.  The payload is written in
    place after a header placeholder, which {!frame_close} then patches. *)

val frame_header : int
(** Header bytes before the payload (8). *)

val frame_open : writer -> int
(** Reserve a header at the current position; returns its offset. *)

val frame_close : writer -> int -> unit
(** Patch the header at the given offset with the length and CRC-32 of
    everything written after it. *)

type frame =
  | Framed of int
      (** a CRC-valid payload of this length starts [frame_header] bytes
          past the frame *)
  | Short  (** fewer than [frame_header] bytes remain: a torn header *)
  | Overlong of int
      (** the header claims this many payload bytes, more than remain (or
          than [max_len]) *)
  | Corrupt of int
      (** checksum mismatch over a payload of this length *)

val read_frame : ?max_len:int -> Bytes.t -> pos:int -> frame
(** Check the frame at [pos] against the bytes that follow it. *)

(** {2 Reader} *)

type reader

val reader : ?pos:int -> ?len:int -> Bytes.t -> reader

val ru8 : reader -> int
val ru32 : reader -> int
val ri64 : reader -> int
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val rvalue : reader -> Storage.Value.t
val rschema : reader -> Storage.Schema.t
val rlayout_groups : reader -> int list list
val rencodings : reader -> (int * Storage.Encoding.t) list
val rindex_kind : reader -> Storage.Index.kind
