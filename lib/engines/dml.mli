(** Shared executor for UPDATE statements.

    All engines funnel updates through this module: the dataflow (locate
    matching tuples, evaluate new values against the old tuple, write in
    place, rebuild affected indexes) is identical across processing models —
    only the per-value instruction costs differ, which callers pass in. *)

val index_tids :
  Storage.Catalog.t ->
  Storage.Value.t array ->
  string ->
  Relalg.Physical.access ->
  int list option
(** Tuple ids an index access path selects ([None] for a full scan) — the
    locate step of every engine's scans and of {!update}, shared with the
    sharded executor so all compute identical match sets.
    @raise Invalid_argument when the named index does not exist. *)

val update :
  per_value:int ->
  call_cost:int ->
  Storage.Catalog.t ->
  params:Storage.Value.t array ->
  table:string ->
  access:Relalg.Physical.access ->
  post:Relalg.Expr.t option ->
  assignments:(int * Relalg.Expr.t) list ->
  int
(** Returns the number of updated tuples.  Indexes whose key includes an
    assigned attribute are rebuilt afterwards. *)
