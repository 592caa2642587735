(** Shared executor for INSERT and UPDATE statements.

    All engines funnel writes through this module: the dataflow (evaluate
    an INSERT's row; locate matching tuples, evaluate new values against the
    old tuple, write in place, rebuild affected indexes) is identical across
    processing models — only the per-value instruction costs differ, which
    callers pass in.  The writes themselves go through {!Storage.Write}. *)

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

val values :
  params:Storage.Value.t array -> Relalg.Expr.t list -> Storage.Value.t array
(** An INSERT's row: its value expressions evaluated (they cannot reference
    columns). *)

val insert :
  per_value:int ->
  Storage.Catalog.t ->
  params:Storage.Value.t array ->
  table:string ->
  values:Relalg.Expr.t list ->
  unit
(** Evaluate the row, charge [per_value] per value and append it through
    {!Storage.Write.apply}.  No transaction frame of its own: with a
    durability manager attached the append is auto-wrapped as now.
    @raise Mrdb_util.Errors.Bad_request if the row does not fit the table. *)

val locate_updates :
  per_value:int ->
  call_cost:int ->
  Storage.Catalog.t ->
  params:Storage.Value.t array ->
  table:string ->
  access:Relalg.Physical.access ->
  post:Relalg.Expr.t option ->
  assignments:(int * Relalg.Expr.t) list ->
  (int -> (int * Storage.Value.t) list -> unit) ->
  unit
(** The locate/evaluate loop of every UPDATE: visit the tuples [access]
    selects in order (charging [call_cost] each and [per_value] per column
    read), and hand each one [post] accepts to the sink with its new
    [(attr, value)] pairs, every right-hand side evaluated against the old
    tuple. *)

val update :
  per_value:int ->
  call_cost:int ->
  Storage.Catalog.t ->
  params:Storage.Value.t array ->
  table:string ->
  access:Relalg.Physical.access ->
  post:Relalg.Expr.t option ->
  assignments:(int * Relalg.Expr.t) list ->
  unit
(** {!locate_updates} inside one {!Storage.Write.statement}: each matched
    tuple is charged [per_value] per assignment and written at once, so
    reads and writes interleave as the statement visits.  Indexes whose key
    includes an assigned attribute are rebuilt afterwards; a failed
    statement changes nothing.
    @raise Mrdb_util.Errors.Bad_request if a new value does not fit its
    attribute. *)
