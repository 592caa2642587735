(** A memory-resident relation stored under a chosen vertical layout.

    Each partition is one contiguous region of tuples of the partition's
    width; the address of attribute [a] of tuple [tid] is
    [part_base + tid * part_width + offset(a)] — the PDSM storage scheme of
    Section III-B.

    Each attribute has one storage state: plain, or one of the
    {!Encoding} schemes with its side region (dictionary values, sparse
    pairs, runs or FOR exceptions), whose entries are
    [Encoding.side_width] bytes wide. *)

type t

val create :
  ?hier:Memsim.Hierarchy.t ->
  ?capacity:int ->
  ?encodings:(int * Encoding.t) list ->
  Arena.t ->
  Schema.t ->
  Layout.t ->
  t
(** [encodings] selects per-attribute storage encodings (attribute index to
    encoding); unlisted attributes are stored plain. *)

val schema : t -> Schema.t
val layout : t -> Layout.t
val nrows : t -> int
val hier : t -> Memsim.Hierarchy.t option
val arena : t -> Arena.t

val with_hier : t -> Memsim.Hierarchy.t option -> t
(** A read-only view of the same stored data whose traced accesses are
    reported to a different memory hierarchy (or, with [None], untraced).
    Worker domains of a parallel query each read the shared relation through
    their own view so simulated cache behaviour composes per-domain; the
    view shares all storage with the original, and {!append} and {!load} on
    it are rejected. *)

val reslice : t -> lo:int -> len:int -> unit
(** Move a view's window to rows [lo .. lo+len-1] of its parent (the window
    the parent had when the view was created).  Mutates the view in place —
    the morsel loop of the parallel executor builds one view per domain and
    reslices it per morsel instead of reallocating catalog and views. *)

val append : t -> Value.t array -> int
(** Append a full tuple (one value per schema attribute, in schema order);
    returns the new tuple id.  Grows partitions as needed. *)

val get : t -> int -> int -> Value.t
(** [get t tid attr].
    @raise Invalid_argument (naming the relation and tuple) when [tid] is
    out of bounds. *)

val value_reader : t -> int -> int -> Value.t
(** [value_reader t a] is [fun tid -> get t tid a], with the attribute's
    partition, offset, type and encoding resolved once: the same value, the
    same traced access and the same bounds check per call, following
    {!reslice} and appends.  An encoded attribute's reader calls {!get}. *)

val int_reader : t -> int -> int -> int
(** {!value_reader} of an {!int_run_readable} attribute, unboxed: the same
    traced access and bounds check per call. *)

val touch_reader : t -> int -> int -> unit
(** [touch_reader t a tid] makes the traced accesses of [value_reader t a
    tid], at the same addresses and widths and with the same bounds check,
    without building the value. *)

val set : t -> int -> int -> Value.t -> unit

val rejects : t -> int -> Value.t -> string option
(** [rejects t a v] is why {!append} or {!set} would refuse [v] for
    attribute [a] under its type, nullability and encoding, or [None] when
    they accept it.  Pure: no simulated traffic. *)

val get_tuple : t -> int -> Value.t array
(** Whole-tuple read.  When every attribute is plain, non-nullable and
    8 bytes wide (and partitions hold consecutive attr ranges), the access
    trace is batched per partition as one contiguous run — same access
    order, same counters, far fewer simulator calls. *)

val run_readable : t -> int -> bool
(** The attribute is stored plain and non-nullable, i.e. a range of tuples
    is one fixed-stride run of equal-width fields. *)

val int_run_readable : t -> int -> bool
(** {!run_readable} and 8-byte integer-valued ([Int] or [Date]). *)

val read_int_run : t -> lo:int -> count:int -> int -> int array -> unit
(** [read_int_run t ~lo ~count a dst] reads attribute [a] of tuples
    [lo .. lo+count-1] into [dst.(0..count-1)] as unboxed ints, tracing the
    whole run with one simulator call.  Requires {!int_run_readable}. *)

val read_value_run : t -> lo:int -> count:int -> int -> Value.t array -> unit
(** Boxed-value variant; requires {!run_readable}. *)

val field_width : t -> int -> int
(** Stored width of the attribute's field under its encoding. *)

val encoding : t -> int -> Encoding.t

val encodings : t -> (int * Encoding.t) list
(** The non-plain encodings in ascending attribute order, as passable to
    {!create} (snapshots store them in this order). *)

val side_entries : t -> int -> int
(** Entries in the attribute's side region: distinct values so far (Dict),
    non-null entries (Sparse), runs (Rle) or exceptions (For_bp); 0 for a
    plain attribute.  Each entry is [Encoding.side_width] bytes — together
    the parameters of the decode and probe access patterns. *)

(** {2 Predicates on the stored representation}

    How an encoded attribute is scanned is this module's business: a
    caller hands over a test on values and its own per-value charge, and
    gets back the surviving rows of a scan or a test on one row.
    [charge k] is called wherever the caller's evaluation of [k] values
    is due. *)

(** What a predicate says of every value in a closed int range: all pass,
    none pass, or each must be tested. *)
type verdict = All | Nothing | Scan

val filter_scan :
  t ->
  int ->
  test:(Value.t -> bool) ->
  bounds:(min:int -> max:int -> verdict) ->
  charge:(int -> unit) ->
  ((lo:int -> len:int -> Value.t option -> unit) -> unit) option
(** [filter_scan t a ~test ~bounds ~charge] is a full scan of attribute
    [a] that keeps the rows whose value passes [test], evaluated on the
    stored representation.  The scan [f emit] reads the view's row count
    each time it runs and calls [emit ~lo ~len v] for ranges of kept
    rows, ascending and disjoint.
    - Runs: each run is tested once (one charge) and a passing run is one
      range, with [v = Some x], its value.
    - Dictionary: each distinct value is tested once (one charge each),
      then the codes are scanned.
    - Frame of reference: [bounds] is asked once, when the scan is made,
      about the widen-only range of every value the column has stored (a
      superset of the live values; no question before a value is stored,
      which counts as [Scan]).  The scan charges one value each time it
      runs, then emits every row on [All], none on [Nothing], and on
      [Scan] decodes or escapes each code.
    A code scan reads codes in runs of 1,024 rows, charges one value per
    code and emits maximal ranges with [v = None].  [None] for any other
    storage, and for nullable dictionary and frame-of-reference columns:
    their values are read through {!get}. *)

val point_test :
  t ->
  int ->
  test:(Value.t -> bool) ->
  charge:(int -> unit) ->
  (int -> bool) option
(** [point_test t a ~test ~charge] tests the row [tid] of attribute [a] by
    reading its stored code alone: against the dictionary's verdicts,
    which the first call takes as {!filter_scan} does, after reading its
    code, or through a frame-of-reference decode.  [None] for any storage
    but non-nullable dictionary and frame-of-reference columns. *)

val runs : t -> int -> ((lo:int -> len:int -> Value.t -> unit) -> unit) option
(** [runs t a] gives each maximal run of attribute [a] over the view's rows
    as [f ~lo ~len v], ascending: one traced binary search to the first run
    and one run-entry touch per run.  [None] unless [a] is stored as
    runs. *)

val storage_bytes : t -> int
(** Bytes occupied by the relation's partitions and side regions
    ([nrows * part_width] per partition plus
    [side_entries * Encoding.side_width] per attribute) — the
    storage-footprint metric of the compression and sparse-storage
    experiments. *)

val part_of_attr : t -> int -> int
val part_width : t -> int -> int
(** Tuple width of the given partition. *)

val n_parts : t -> int
(** Number of stored partitions. *)

val part_row_offset : t -> int -> int
(** Byte offset of this view's first row inside the given partition's
    buffer ([row_base * part_width]) — where a compiled pipeline must start
    reading to cover exactly the rows this (possibly sliced) view exposes. *)

val part_buffer : t -> int -> Buffer.t
val attr_offset : t -> int -> int
(** Byte offset of the attribute inside its partition's tuple. *)

val repartition : t -> Layout.t -> t
(** Copy into a new layout (untraced — layout changes are setup work).
    Sparse/RLE attributes that are no longer alone in their partition fall
    back to plain storage deterministically.  The copy's partitions are
    sized for exactly {!nrows} rows.  When the source has spare capacity
    (it grew by appends since it was built), each partition also gets
    {!Buffer} host room for twice its rows, the extent its next grow takes,
    so the first append after the change copies nothing; arena addresses
    and simulated counters are the same either way. *)

val recompress : t -> ?layout:Layout.t -> (int * Encoding.t) list -> t
(** Copy into new per-attribute encodings (and optionally a new layout) —
    untraced, like {!repartition}, and keeping growth room as it does.
    Encodings incompatible with the target layout (a Sparse/RLE attribute
    not alone in its partition) fall back to plain deterministically. *)

val load :
  t -> n:int -> (row:int -> Value.t array) -> unit
(** Bulk-append [n] generated tuples with tracing disabled. *)

val load_int_rows : t -> n:int -> (row:int -> int array -> unit) -> unit
(** Unboxed {!load} for relations whose every attribute is a plain
    non-nullable 8-byte int/date: [f ~row dst] fills the reusable [dst]
    (one int per attribute, schema order).  Raises [Invalid_argument] on
    any other relation. *)
