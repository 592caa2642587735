(** Shared runtime facilities for the execution engines: query results,
    simulator-resident hash tables, aggregation tables, and a sort helper
    whose memory traffic is visible to the simulator. *)

module Value = Storage.Value

type result = { columns : string array; rows : Value.t array list }

val pp_result : Format.formatter -> result -> unit

val concat_results : result list -> result
(** Combine per-morsel partial results of one query: all column headers must
    agree, and rows are concatenated in list order (morsel order — keeping
    parallel selection output deterministic and equal to a sequential run).
    @raise Invalid_argument on an empty list or a column mismatch. *)

val charge : Memsim.Hierarchy.t option -> int -> unit
(** Charge CPU cycles if a hierarchy is attached. *)

val simple_int_cmp :
  params:Value.t array ->
  Storage.Relation.t ->
  Relalg.Expr.t ->
  (int * (int -> bool)) option
(** Recognize a conjunct of the shape [Col c <op> rhs] with [rhs] column-free
    and integer-valued, over a plain non-nullable int column: returns the
    column index and an unboxed test exactly equivalent to the boxed
    evaluation.  Engines use it to run selections over column runs. *)

val compressed_filter_range :
  ?hier:Memsim.Hierarchy.t ->
  params:Value.t array ->
  per_value:int ->
  Storage.Relation.t ->
  Relalg.Expr.t ->
  (int * ((lo:int -> len:int -> Value.t option -> unit) -> unit)) option
(** Evaluate a predicate whose only column is stored compressed directly on
    the compressed representation during a full scan: per-run evaluation for
    RLE, a distinct-value bitmap plus narrow code scan for dictionaries, and
    pure-CPU reconstruction with range pruning for frame-of-reference
    columns.  Returns the column index and a driver that emits maximal
    surviving tid ranges in ascending order (the value argument is [Some v]
    when the whole range shares the known value [v] — RLE runs).  [None]
    when no compressed fast path applies; results are always identical to
    the generic decode-per-tuple evaluation. *)

val compressed_tid_test :
  ?hier:Memsim.Hierarchy.t ->
  params:Value.t array ->
  per_value:int ->
  Storage.Relation.t ->
  Relalg.Expr.t ->
  (int -> bool) option
(** Point-wise variant for position-list inputs: test one tid against a
    dictionary bitmap or a reconstructed frame-of-reference value, reading
    only the narrow stored code. *)

(** A hash table whose probe/update traffic is modeled as repetitive random
    accesses into a simulator region (the [rr_acc] of the cost model).  The
    host side is flat arrays of entries (key fold, key, value, bucket chain
    link) that the simulator never sees: it only needs the addresses, and
    every call touches them in a fixed order (add: grow, then write; a
    match probe: read; find_or_add: read, write, then grow on a miss). *)
module Sim_hash : sig
  type 'v t

  val create :
    ?hier:Memsim.Hierarchy.t ->
    Storage.Arena.t ->
    entry_width:int ->
    unit ->
    'v t
  (** [entry_width] is the modeled bytes per entry (key plus payload). *)

  val add : 'v t -> key:Value.t list -> 'v -> unit
  (** Add an entry; keys may repeat (a join build). *)

  val iter_matches : 'v t -> key:Value.t list -> ('v -> unit) -> unit
  (** Apply [f] to the value of every entry whose key fold agrees and whose
      keys are pairwise {!Value.equal} to [key], oldest first: the join
      probe, which builds no list. *)

  val find_or_add : 'v t -> key:Value.t list -> int
  (** The index of the newest entry whose key compares equal to [key] under
      [compare k key = 0] (the group rule: NaN keys group together, [VInt 1]
      and [VDate 1] stay apart), or [lnot i] for a fresh entry [i] added
      under [key], whose value the caller must {!set_value} before any other
      call on the table. *)

  val value : 'v t -> int -> 'v
  val set_value : 'v t -> int -> 'v -> unit

  val iter : 'v t -> (Value.t list -> 'v -> unit) -> unit
  (** Iterate entries in insertion order (deterministic). *)

  val length : 'v t -> int
  (** Entries added since creation or the last {!clear}. *)

  val clear : 'v t -> unit
  (** Drop all entries (untraced, like {!create}) so a prepared pipeline can
      reuse the table across executions.  The simulated base address and the
      host capacity are kept; the simulated capacity returns to the initial
      slot count. *)
end

(** Aggregation table: one {!Aggregate.state} vector per key. *)
module Agg_table : sig
  type t

  val create :
    ?hier:Memsim.Hierarchy.t ->
    Storage.Arena.t ->
    aggs:Relalg.Aggregate.t list ->
    ?global:bool ->
    key_width:int ->
    unit ->
    t
  (** [global] marks a group-by without keys: on empty input it emits one
      all-initial group (SQL semantics for global aggregates). *)

  val clear : t -> unit
  (** Reset to the freshly-created state (untraced); see {!Sim_hash.clear}. *)

  val update : t -> key:Value.t list -> inputs:Value.t array -> unit
  (** [inputs] holds, positionally per aggregate, the evaluated argument
      ([Null] for count-star). *)

  val update_n :
    t -> key:Value.t list -> inputs:Value.t array -> count:int -> unit
  (** Accumulate [count] identical rows with one entry lookup — the
      run-granular aggregation path over RLE columns.  Exactly equal to
      [count] calls of {!update} (see {!Relalg.Aggregate.step_n}). *)

  val emit : t -> (Value.t list -> Value.t array -> unit) -> unit
  (** Iterate groups as (key values, finished aggregate values); a global
      table that consumed no rows emits a single group of initial states. *)
end

val sort_rows :
  ?hier:Memsim.Hierarchy.t ->
  Storage.Arena.t ->
  row_width:int ->
  keys:(int * Relalg.Plan.dir) list ->
  Value.t array list ->
  Value.t array list
(** Sort materialized rows.  Models the traffic of an out-of-place sort:
    a sequential write of all rows followed by [n log n] random accesses. *)
