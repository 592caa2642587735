(** Translation of physical plans into access-pattern programs (Table II,
    Section IV-D).

    The plan is traversed like the JiT code generator would traverse it, and
    each operator appends ("emits") its access patterns: the cost model is
    treated as a programmable machine whose instructions are the atomic
    patterns.  Emission is layout-aware: a scan of a partially decomposed
    relation contributes one atom per touched partition, with the partition
    tuple width as the region width — this is what lets the same query be
    costed under hypothetical layouts during schema decomposition.

    Alongside the pattern, emission collects layout-{e independent} access
    descriptors — which attribute sets a query touches together, in which
    manner, at which selectivity.  The layout optimizer derives its extended
    reasonable cuts from these (Section V-A). *)

type access_kind =
  | Seq  (** unconditional sequential access *)
  | Seq_cond of float  (** conditional access at the given probability *)
  | Rand  (** point access (index lookups, updates) *)

type access_desc = {
  table : string;
  attrs : int list;
  kind : access_kind;
  touches : int;
      (** estimated number of item accesses behind the descriptor: the row
          count for [Seq], the expected match count for [Seq_cond] and the
          repetition count for [Rand] — what the layout advisor's integer
          program needs to price a fragment touch without re-emitting the
          plan *)
}

type enc_hint = {
  enc : Storage.Encoding.t;
  entries : int;
      (** predicted side-region entries ([Storage.Compress.entries]): the
          count [Storage.Relation.side_entries] reads once the column is
          stored under [enc] *)
}
(** A hypothetical per-attribute encoding with the side-region size the
    compressed atoms need — lets the optimizer cost compression schemes
    without materializing them.  The entry width comes from
    [Storage.Encoding.side_width], as for a stored column. *)

val emit :
  ?layouts:(string * Storage.Layout.t) list ->
  ?encodings:(string * (int * enc_hint) list) list ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  Pattern.t * access_desc list
(** [layouts] overrides the stored layout of named tables (used by the
    optimizer to evaluate candidate decompositions); [encodings] likewise
    overrides their live per-attribute encodings wholesale — attributes
    absent from a listed table's hints are costed plain; [estimate] refines
    per-conjunct selectivities. *)

val pp_desc : Storage.Catalog.t -> Format.formatter -> access_desc -> unit
