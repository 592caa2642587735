(** The compression advisor: per-column statistics, a footprint-driven
    scheme chooser, and the catalog-level entry point that applies a chosen
    plan and accounts for it in the metrics registry.

    The advisor is deterministic in the stored rows, so recovery replay and
    differential fuzzing can re-derive the same plan from the same data. *)

type stat = {
  attr : int;
  rows : int;
  non_null : int;
  distinct : int;  (** capped at 4096 *)
  runs : int;  (** maximal equal-value runs in tid order *)
  int_only : bool;
  for_exceptions : int array;
      (** per candidate code width (1, 2, 4 bytes): values that do not fit
          the zigzag window around the column's first non-null value *)
}

val analyze : Relation.t -> stat array
(** One untraced pass per column (statistics gathering is setup work). *)

val entries : stat -> Encoding.t -> int
(** Predicted side-region entries of the column under a scheme: distinct
    values (Dict), runs (Rle), non-null values (Sparse) or values outside
    the zigzag window at that code width (For_bp); 0 for Plain.  This is
    what {!Relation.side_entries} reads once the column is stored so. *)

val encoded_bytes : Schema.t -> stat -> Encoding.t -> int
(** Predicted footprint of the column under a scheme:
    [rows * Encoding.stored_width + entries * Encoding.side_width] — the
    rule {!Relation.storage_bytes} stores a column by. *)

val choose : Schema.t -> stat -> Encoding.t
(** The scheme with the smallest predicted footprint, if it saves at least
    30% over plain storage; [Plain] otherwise. *)

val plan : Relation.t -> (int * Encoding.t) list
(** Non-plain {!choose} results for every column. *)

val plan_rows : Schema.t -> Value.t array array -> (int * Encoding.t) list

val singleton_layout :
  Schema.t -> Layout.t -> (int * Encoding.t) list -> Layout.t
(** Split every Sparse/RLE attribute of the plan into its own singleton
    partition (those schemes store the column outside its partition's
    tuples), leaving all other groups as they are. *)

val apply :
  Catalog.t -> string -> ?layout:Layout.t -> (int * Encoding.t) list -> unit
(** Apply a compression plan through {!Catalog.set_physical} (adjusting the
    layout with {!singleton_layout}), then record bytes-before/after per
    scheme and the relation's compression-ratio gauge in [Obs.Metrics]. *)
