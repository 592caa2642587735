(** The database catalog: named relations, their layouts and indexes.

    The paper's PDSM backend "extended the catalog to support multiple
    vertical partitions within a single relation" — here the layout is a
    property of each stored relation, changeable via {!set_layout}. *)

type t

(** The catalog's write vocabulary, applied by {!Write} and replayed from
    the write-ahead log, whose operation payload it is. *)
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

(** What a registered observer (see {!set_observer}) is told: transaction
    frames, and each op a writer applied, after it was applied and with
    its values as the writer gave them.  The durability subsystem logs
    these; with no observer registered, reporting is one [None] match and
    builds nothing. *)
type event =
  | Begin  (** an {!in_txn} frame entered *)
  | Commit  (** an {!in_txn} frame returned normally *)
  | Abort  (** an {!in_txn} frame raised *)
  | Op of op

val create : ?hier:Memsim.Hierarchy.t -> ?arena:Arena.t -> unit -> t
(** [?arena] supplies the address space to allocate from instead of a fresh
    one — per-domain shadow catalogs of the parallel executor pass disjoint
    arenas so concurrent intermediate allocations never race or alias. *)

val arena : t -> Arena.t
val hier : t -> Memsim.Hierarchy.t option

val add :
  ?encodings:(int * Encoding.t) list -> t -> Schema.t -> Layout.t -> Relation.t
(** Create and register an empty relation (optionally with per-attribute
    storage encodings). *)

val add_relation : t -> Relation.t -> unit

val find : t -> string -> Relation.t
(** @raise Mrdb_util.Errors.Unknown_table for unknown names. *)

type entry
(** A table's place in the catalog: its relation and indexes.  A
    repartition replaces the relation in place, so an entry looked up
    once serves a whole operation; registering a relation under the same
    name again makes a new entry. *)

val entry : t -> string -> entry
(** @raise Mrdb_util.Errors.Unknown_table for unknown names. *)

val relation : entry -> Relation.t
(** The entry's current relation. *)

val mem : t -> string -> bool

val names : t -> string list

val set_layout : t -> string -> Layout.t -> unit
(** Repartition the stored relation (rebuilds indexes). *)

val set_physical :
  t -> string -> ?layout:Layout.t -> (int * Encoding.t) list -> unit
(** Rebuild the stored relation under new per-attribute encodings and,
    optionally, a new layout (rebuilds indexes).  Encodings incompatible
    with the target layout fall back to plain, see {!Relation.recompress}. *)

val create_index : t -> string -> name:string -> kind:Index.kind -> attrs:string list -> unit

val indexes : t -> string -> (string * Index.t) list

val find_index : t -> string -> attrs:int list -> Index.t option
(** An index whose key is exactly [attrs] (used by the planner). *)

val rebuild_indexes_for : t -> string -> attrs:int list -> unit
(** Rebuild every index whose key intersects [attrs] (after in-place
    updates).  Index builds run untraced, like all setup work. *)

val notify : t -> op -> unit
(** Report an op that was just applied to the observer, counting appended
    rows and updated fields.  {!Write} calls it for every row write; the
    DDL entry points above report their own op. *)

val notify_update : t -> string -> tid:int -> attr:int -> value:Value.t -> unit
(** {!notify} of an [Update] the caller has not built: it is built only
    when an observer is registered. *)

val index_insert : entry -> tid:int -> unit
(** Maintain the entry's indexes after tuple [tid] was appended. *)

val rebuild_entry_indexes : entry -> attrs:int list -> unit
(** {!rebuild_indexes_for} for a table already looked up. *)

val index_defs : t -> string -> (string * Index.kind * string list) list
(** Index definitions (name, kind, key attribute names) in creation order —
    the serialization hook snapshots use to re-register indexes. *)

val set_observer : t -> (event -> unit) -> unit
val clear_observer : t -> unit

val in_txn : t -> (unit -> 'a) -> 'a
(** Run [f] framed by [Begin]/[Commit] (or [Abort] if it raises).  Nested
    frames report theirs too; the observer folds them into the outermost.
    Without an observer this is just [f ()]. *)
