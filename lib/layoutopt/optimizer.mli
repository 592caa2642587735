(** Workload-driven schema decomposition: ties together pattern emission,
    extended reasonable cuts, the cost model and BPi. *)

type algorithm =
  | Bpi of float  (** branch and bound with the given relative threshold *)
  | Ip
      (** Amossen's integer program ({!Ip}): exact branch and bound over the
          full set-partition lattice, its candidate frontier re-costed under
          the full model and guarded by a BPi run — never worse than
          [Bpi 0.005] on the model's own estimate *)

type table_result = {
  table : string;
  layout : Storage.Layout.t;
  encodings : (int * Storage.Encoding.t) list;
      (** chosen per-attribute compression (empty = plain storage) *)
  cuts : Cut.t list;  (** the extended reasonable cuts considered *)
  estimated_cost : float;  (** workload cost under the chosen layout *)
  row_cost : float;  (** workload cost under NSM, for reference *)
  column_cost : float;  (** workload cost under DSM, for reference *)
  search : Bpi.stats;
}

val tables : Storage.Catalog.t -> (Relalg.Physical.t * float) list -> string list
(** Tables a frequency-weighted workload touches (those its plans emit
    access descriptors for), sorted and deduplicated. *)

val cuts_for_table :
  ?extended:bool ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  Storage.Catalog.t ->
  string ->
  (Relalg.Physical.t * float) list ->
  Cut.t list
(** The (extended, by default) reasonable cuts the workload induces on one
    table. *)

val optimize_table :
  ?algorithm:algorithm ->
  ?extended:bool ->
  ?compress:bool ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  ?params:Memsim.Params.t ->
  ?additive:bool ->
  Storage.Catalog.t ->
  string ->
  (Relalg.Physical.t * float) list ->
  table_result
(** Optimize the layout of one table for a frequency-weighted workload.
    [extended = false] falls back to classic reasonable cuts (for the
    ablation experiment); [additive = true] uses the non-prefetch-aware cost
    function.  [compress = true] searches jointly over decomposition and
    per-column compression: the advisor's candidate schemes are costed with
    the compressed-traversal atoms and kept only when they beat the plain
    design. *)

val optimize :
  ?algorithm:algorithm ->
  ?extended:bool ->
  ?compress:bool ->
  ?estimate:(Relalg.Expr.t -> float option) ->
  ?params:Memsim.Params.t ->
  Storage.Catalog.t ->
  (Relalg.Physical.t * float) list ->
  table_result list
(** Optimize every table the workload touches. *)

val apply : Storage.Catalog.t -> table_result list -> unit
(** Repartition the stored relations to the chosen layouts, applying any
    chosen compression plan through {!Storage.Compress.apply}. *)
