(** C99 backend of the compiled engine, in the data-centric style of the
    paper's Fig. 2c.

    {!emit_unit} lowers a physical plan to a self-contained C99 translation
    unit: operators fuse into one loop per pipeline, reads go straight to
    the partition bytes (PDSM-aware: [base + row * width + offset]), a
    global aggregate accumulates in locals, and only pipeline breakers
    materialize — a hash-join build (separate build and probe loops), a
    keyed group-by table, a sort buffer (under a [LIMIT], a bounded top-k
    heap).  Their entries hold typed fields chosen by each slot's static
    type, a null byte only where a slot can be null, [int32_t] chain and
    slot indices, and no stored fold where a single non-null Int/Date/Bool
    key is its own; a build, group or sort past [INT32_MAX] entries takes
    the out-of-memory exit.  A join build whose single non-null
    Int/Date/Bool key is its own fold tracks its key range [lo, hi]; when
    [hi - lo] is at most [8n + 64] for [n] entries its buckets are
    direct-mapped (fold [h] owns bucket [h - lo], and a probe fold outside
    the range misses), otherwise, as for every other join, the fold is
    hashed into a power of two of at least [2n] buckets.  A keyed group-by
    whose keys read only build-side columns of the hash join directly
    below it (through Selects and Projects) is a groupjoin: each build
    entry caches its group's index, set by the first row through it that
    reaches the group-by, and later rows through the entry step that group
    without folding, hashing or comparing its keys; the groups and their
    order are unchanged.  Its [mrdb_query] entry point
    reproduces the interpreted engines' results row for row: 63-bit
    wrapping integer arithmetic, total-order float comparison, SQL null
    propagation, insertion-order group emission, join matches in
    build-insertion order under [Runtime.Sim_hash]'s rule (equal
    [Hash_index.key_of_values] folds and [Value.equal] keys, so NULL keys
    match each other and an Int key matches an equal Date key), and stable
    sorts in [Value.compare] order.  Varchar columns travel as pointers to
    their fixed-width NUL-padded fields and may be group keys, join keys,
    build payload, sort payload and output.

    Entry point:
    {v
int64_t mrdb_query(const unsigned char *const *parts, const int64_t *nrows,
                   const unsigned char *params, mrdb_out *out);
    v}
    [parts] holds the partition payloads of every scanned table in
    {!unit_info.tables} order, each offset to its view's first row;
    [nrows] the row count of each scanned table; [params] the parameter
    vector in the 16-byte records of {!param_bytes}.  The unit grows
    [out]'s heap buffer itself: an 8-byte row count, then per field a tag
    byte (0 null, 1 int, 2 float, 3 bool, 4 date, 5 string) followed by 8
    payload bytes, a 4-byte length and the bytes of a string, or nothing
    for a null.  It returns the result size, or -1 when out of memory. *)

type scanned = {
  name : string;
  groups : int list list;  (** partition groups of the layout compiled for *)
  widths : int array;  (** byte width of each partition *)
}
(** A scanned table as the unit's addressing assumes it. *)

type unit_info = {
  source : string;  (** complete C99 translation unit *)
  tables : scanned array;  (** scanned tables, in ABI order *)
  out_arity : int;  (** columns per output row *)
  tagged_entry_fields : int;
      (** tagged [mv] members in the unit's join, group and sort entries;
          0 while every entry field is typed *)
  groupjoins : int;
      (** keyed group-bys served through a join entry's cached group
          index (see the groupjoin rule above) *)
}

val scanned_of : string -> Storage.Relation.t -> scanned
(** The addressing-relevant shape of a relation now; a unit may run on it
    only while this equals the shape it was compiled for and the relation
    stays plain-encoded. *)

val emit_unit :
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  params:Storage.Value.t array ->
  (unit_info, string) result
(** [emit_unit cat plan ~params] compiles [plan] to a C99 translation
    unit, or returns [Error reason] when the plan uses features outside
    the compiled subset: index access, [LIKE] and other string predicates,
    string constants, parameters or arithmetic, compressed relation
    encodings, DML, or unbound parameters.  Only the {e types} of
    [params] shape the source — their values are read at run time — so
    every parameter vector of one type signature yields the same unit.
    Callers fall back to an interpreted engine on [Error]. *)

val param_bytes : Storage.Value.t array -> Bytes.t
(** The run-time parameter records [mrdb_query] reads: per parameter an
    8-byte tag and 8 payload bytes, little-endian. *)
