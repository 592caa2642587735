(** The CNET products benchmark (Section VI-D, Table V, Fig. 12).

    A very wide, sparsely populated product-catalog relation: a handful of
    universal attributes (id, name, category, manufacturer, price) plus many
    optional per-product-type attributes of which the average tuple fills
    only ~11 — the ORM-style schema the paper argues benefits most from
    partial decomposition.  The real dataset has almost 3000 attributes; the
    width here is configurable (default 120) so the simulator runs in
    seconds, and the tuple stays wide and sparse relative to the cache
    line. *)

type t = { cat : Storage.Catalog.t; queries : Workload.query list }

val build :
  ?hier:Memsim.Hierarchy.t ->
  ?n_products:int ->
  ?n_extra:int ->
  ?avg_filled:int ->
  unit ->
  t
(** [n_extra] optional attributes (default 114 → 120 columns total), of
    which [avg_filled] (default 11) are non-null per tuple. *)

val query : t -> string -> Workload.query
(** "C1".."C4" with the frequencies of Table V (1, 1, 100, 10000). *)
