(** The catalog's write vocabulary, its check and its apply.

    Every writer changes a catalog through this module: the engines'
    INSERT and UPDATE, the sharded executor's write sets, MVCC commit,
    two-phase commit and crash recovery.  The op type is also the
    write-ahead log's operation payload, so a write set is logged, shipped
    to a shard, replayed and applied under one interpretation. *)

type op =
  | Create_relation of {
      table : string;
      schema : Schema.t;
      layout : int list list;
      encodings : (int * Encoding.t) list;
    }
  | Append of { table : string; values : Value.t array }
  | Load of { table : string; rows : Value.t array array }
  | Update of { table : string; tid : int; attr : int; value : Value.t }
  | Set_layout of { table : string; layout : int list list }
  | Set_physical of {
      table : string;
      layout : int list list;
      encodings : (int * Encoding.t) list;
    }
  | Create_index of {
      table : string;
      iname : string;
      kind : Index.kind;
      attrs : string list;
    }

val check : Catalog.t -> op -> unit
(** Refuse, before anything is written, exactly the row writes the stored
    relation would refuse: a wrong arity, an attribute or row out of range,
    NULL into a non-nullable attribute, or a value the attribute cannot
    take ({!Relation.rejects}).  DDL ops pass.  Pure: no simulated traffic.
    @raise Mrdb_util.Errors.Bad_request for such a write.
    @raise Mrdb_util.Errors.Unknown_table for an unknown table. *)

val apply : Catalog.t -> op -> unit
(** {!check}, then apply one op with its catalog notification: [Append] is
    {!Relation.append} and {!Catalog.notify_insert}, [Update] is
    {!Relation.set} and {!Catalog.notify_update}.  [Load] appends its rows
    without notification (so it maintains no index); DDL ops go through
    the catalog's own entry points. *)

val apply_all : Catalog.t -> op list -> unit
(** Check every op, then apply them all in order, then rebuild, once per
    table, the indexes whose key an [Update] touched.  A refused op raises
    before anything is applied. *)

val statement :
  Catalog.t -> string -> ((int -> (int * Value.t) list -> unit) -> 'a) -> 'a
(** [statement cat table f] runs one UPDATE statement on [table] inside a
    {!Catalog.in_txn} frame.  [f write] calls [write tid values] once per
    matched tuple with its new [(attr, value)] pairs, so a tuple's writes
    follow its reads.  Each pair is checked like an [Update] op, the cell
    it overwrites is saved (read untraced), and it is written with
    {!Catalog.notify_update}.  When [f] returns, the indexes whose key
    includes a written attribute are rebuilt.  When it raises (a refused
    value, a failed evaluation), every saved cell is restored untraced,
    newest first, so a failed statement changes nothing; then the exception
    propagates.
    @raise Mrdb_util.Errors.Bad_request from [write] for a value that does
    not fit its attribute. *)
