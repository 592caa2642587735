(** CSV import and export.

    Minimal RFC-4180-style handling: a header row with column names, comma
    separation, double-quote quoting with [""] escapes, empty fields read as
    NULL.  Import either appends to an existing table (values coerced to the
    schema) or creates a new table with inferred column types. *)

val export : Relation.t -> string -> unit
(** Write the relation (header + all tuples) to the given path. *)

val import : Catalog.t -> table:string -> string -> int
(** Append the file's rows to an existing table.  The header must name the
    table's attributes (any order); missing attributes must be nullable.
    Returns the number of appended rows.  Each row is one {!Write.Append},
    every one parsed and checked before any is applied, all applied by
    {!Write.apply_all} in one {!Catalog.in_txn} frame, so a failed import
    appends nothing.  The import runs untraced (loading is setup work),
    index maintenance included.
    @raise Failure on malformed input. *)

val import_new : Catalog.t -> name:string -> string -> Relation.t
(** Create a table named [name] from the file, inferring each column as Int,
    Float, Bool or Varchar (nullable when empty fields occur), and load it
    with one {!Write.Load}, both in one {!Catalog.in_txn} frame. *)
