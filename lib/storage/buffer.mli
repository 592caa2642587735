(** A byte buffer living at a virtual address, with optional access tracing.

    Engines read and write relation partitions, hash tables and
    materialization buffers through this module; every typed accessor both
    moves real bytes (so queries compute real results) and, when a hierarchy
    is attached, reports the access to the simulator (so the experiment
    counters match the paper's performance-counter methodology).

    A buffer has a simulated extent, its {!base} and {!size}: the arena
    region the simulator sees.  The host bytes behind it may be longer than
    the extent.  This {e host room} is zeroed and invisible to the
    simulator, and a {!grow} whose new extent fits in it copies nothing. *)

type t

val create : Arena.t -> ?hier:Memsim.Hierarchy.t -> ?room:int -> int -> t
(** [create arena ?hier ?room size] allocates a zeroed buffer whose extent
    is [size] bytes, backed by [max size room] zeroed host bytes.  The arena
    region is [size] bytes whatever [room] is. *)

val base : t -> int
(** Virtual base address. *)

val size : t -> int
(** Bytes in the simulated extent; host room is not counted. *)

val with_hier : t -> Memsim.Hierarchy.t option -> t
(** A view of the same bytes at the same virtual address whose accesses are
    reported to a different hierarchy (or, with [None], not at all).  The
    underlying storage is shared with the original; the view is meant for
    read-mostly use during one query — do not {!grow} it.  The view keeps
    the extent it was taken with: a {!grow} of the original moves only the
    original's extent, and while that grow fits in the host room the view
    still shares its bytes. *)

val grow : t -> int -> unit
(** [grow t size] enlarges the extent to at least [size] bytes, and at
    least twice the old extent, moving it to a fresh virtual region of that
    size.  The host bytes are reallocated, and the old extent copied, only
    when the new extent no longer fits in them. *)

(** {1 Typed accessors}

    All offsets are in bytes relative to the buffer base.  Reads/writes are
    traced at their byte width. *)

val read_int : t -> int -> int
val write_int : t -> int -> int -> unit
val read_float : t -> int -> float
val write_float : t -> int -> float -> unit
val read_int32 : t -> int -> int
(** 4-byte unsigned-ish accessor (used for dictionary codes). *)

val write_int32 : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val read_uint : t -> int -> width:int -> int
(** Unsigned little-endian accessor of 1, 2, 4 or 8 bytes — compressed code
    fields are narrower than a machine word. *)

val write_uint : t -> int -> width:int -> int -> unit

val read_string : t -> int -> len:int -> string
(** Reads [len] bytes and strips trailing zero padding. *)

val write_string : t -> int -> len:int -> string -> unit
(** Zero-pads (or truncates) the string to [len] bytes. *)

val read_value : t -> int -> ty:Value.ty -> nullable:bool -> Value.t

val value_reader : t -> ty:Value.ty -> nullable:bool -> int -> Value.t
(** [read_value] with the type and nullability fixed once: the returned
    reader traces and returns exactly what [read_value] does at each
    offset, and follows the buffer when {!grow} moves it. *)

val write_value : t -> int -> ty:Value.ty -> nullable:bool -> Value.t -> unit

(** {1 Untraced stored fields}

    A stored field is a null byte (nullable attributes only; 0 marks NULL)
    followed by the fixed-width payload: [Int] and [Date] as 8-byte
    little-endian integers, [Float] as its 8 IEEE bytes little-endian,
    [Bool] as one byte (nonzero is true), [Varchar n] as [n] bytes ending
    at the first NUL.  The readers below neither touch the simulator nor
    box a {!Value.t}: the snapshot writer copies rows through them.  Read
    [Int] and [Date] payloads with {!untraced_read_int}, and copy a
    [Float]'s bytes out of {!unsafe_bytes}. *)

val stored_payload : t -> int -> nullable:bool -> int
(** Offset of the payload of the field at the given offset, or [-1] when
    the field holds NULL. *)

val stored_bool : t -> int -> bool
(** The [Bool] payload at the offset. *)

val stored_varchar_length : t -> int -> len:int -> int
(** Length of the [Varchar len] payload at the offset: up to its first NUL,
    at most [len]. *)

val unsafe_bytes : t -> Bytes.t
(** The backing byte store, host room included: it may be longer than
    {!size}.  Read-only use only: accesses through it are untraced, and a
    {!grow} past the host room replaces the backing store, invalidating the
    returned value.  The compiled-pipeline FFI passes these bytes to
    generated C code. *)

val untraced_read_int : t -> int -> int
(** Read without touching the simulator (used by assertions and tests). *)

val untraced_write_int : t -> int -> int -> unit
(** Write without touching the simulator (bulk-load fast path; loads run
    untraced anyway). *)

val copy_run :
  src:t ->
  src_off:int ->
  src_stride:int ->
  dst:t ->
  dst_off:int ->
  dst_stride:int ->
  width:int ->
  count:int ->
  unit
(** Untraced strided field copy: [count] fields of [width] bytes, the i-th
    read at [src_off + i*src_stride] and written at [dst_off + i*dst_stride].
    Contiguous-on-both-sides copies collapse to one blit; 8-byte fields move
    as int64 loads/stores. *)

val touch : t -> int -> width:int -> unit
(** Report a read of [width] bytes at the given offset without moving data
    (used to model accesses whose payload is handled elsewhere). *)

val touch_write : t -> int -> width:int -> unit

(** {1 Run accessors}

    Each traces the whole fixed-stride access run with a single
    {!Memsim.Hierarchy.read_run}/[write_run] call (line-batched, counters
    byte-identical to the per-element loop) and moves the bytes in a tight
    loop with the hierarchy match and bounds math hoisted out.  [dst]/[src]
    arrays must hold at least [count] elements; offsets are not
    bounds-checked beyond what [Bytes] enforces. *)

val touch_run : t -> int -> width:int -> count:int -> stride:int -> unit
(** Trace [count] reads of [width] bytes, [stride] apart, starting at the
    given offset, without moving data. *)

val touch_write_run : t -> int -> width:int -> count:int -> stride:int -> unit

val read_int_run : t -> int -> ?stride:int -> count:int -> int array -> unit
(** [read_int_run t off ~stride ~count dst] fills [dst.(0..count-1)] with the
    8-byte ints at [off], [off+stride], ...  [stride] defaults to 8
    (contiguous). *)

val write_int_run : t -> int -> ?stride:int -> count:int -> int array -> unit

val read_uint_run :
  t -> int -> width:int -> ?stride:int -> count:int -> int array -> unit
(** Unsigned narrow-field variant of {!read_int_run} ([stride] defaults to
    [width]) — the code-scan primitive for dictionary and
    frame-of-reference partitions. *)

val read_value_run :
  t -> int -> stride:int -> ty:Value.ty -> count:int -> Value.t array -> unit
(** Boxed-value run read for {e non-nullable} fixed-width attributes (a
    nullable field is two touches per element — null byte and payload — and
    cannot be expressed as one uniform run; callers must use {!read_value}). *)

val write_value_run :
  t -> int -> stride:int -> ty:Value.ty -> count:int -> Value.t array -> unit
(** Non-nullable counterpart of {!write_value}; no element of [src] may be
    [Null]. *)
