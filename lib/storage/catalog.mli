(** The database catalog: named relations, their layouts and indexes.

    The paper's PDSM backend "extended the catalog to support multiple
    vertical partitions within a single relation" — here the layout is a
    property of each stored relation, changeable via {!set_layout}. *)

type t

(** Observation events for mutating operations, emitted to a registered
    observer (see {!set_observer}).  The durability subsystem turns these
    into write-ahead-log records; with no observer registered every
    notification is one [None] match and the hot path is untouched. *)
type obs_event =
  | Obs_begin  (** outermost {!in_txn} entered *)
  | Obs_commit  (** outermost {!in_txn} returned normally *)
  | Obs_abort  (** outermost {!in_txn} raised *)
  | Obs_create_relation of { table : string }
  | Obs_append of { table : string; tid : int }
  | Obs_load of { table : string; row_lo : int; rows : int }
  | Obs_update of { table : string; tid : int; attr : int; value : Value.t }
  | Obs_set_layout of { table : string; layout : Layout.t }
  | Obs_set_physical of {
      table : string;
      layout : Layout.t;
      encodings : (int * Encoding.t) list;
    }  (** joint layout + per-attribute encoding change *)
  | Obs_create_index of {
      table : string;
      iname : string;
      kind : Index.kind;
      attrs : string list;
    }

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

val notify_insert : t -> string -> tid:int -> unit
(** Maintain all indexes of the relation after an append (and report the
    append to the observer). *)

val notify_update : t -> string -> tid:int -> attr:int -> value:Value.t -> unit
(** Report an in-place field update to the observer (no-op otherwise);
    {!Write.apply} calls it after each {!Relation.set}. *)

val notify_load : t -> string -> row_lo:int -> rows:int -> unit
(** Report a bulk load of rows [row_lo .. row_lo+rows-1] to the observer
    (no-op otherwise); callers that bulk-load a durable relation via
    {!Relation.load} must follow up with this. *)

val index_defs : t -> string -> (string * Index.kind * string list) list
(** Index definitions (name, kind, key attribute names) in creation order —
    the serialization hook snapshots use to re-register indexes. *)

val set_observer : t -> (obs_event -> unit) -> unit
val clear_observer : t -> unit
val observed : t -> bool

val in_txn : t -> (unit -> 'a) -> 'a
(** Run [f] framed by [Obs_begin]/[Obs_commit] (or [Obs_abort] if it
    raises).  Without an observer this is just [f ()]. *)
