(** MRDB — a memory-resident relational engine combining JiT-compiled query
    execution with partially decomposed (hybrid) storage, after Pirk et al.,
    "CPU and Cache Efficient Management of Memory-Resident Databases"
    (ICDE 2013).

    {!Db} is the high-level entry point; the underlying layers are
    re-exported for direct use:

    - {!Memsim} — the memory-hierarchy simulator (caches, TLB, prefetcher)
    - {!Storage} — values, schemas, layouts, relations, indexes
    - {!Relalg} — expressions, plans, planner, SQL front end
    - {!Engines} — Volcano / bulk / vectorized / HYRISE-style / JiT
      execution, a compiled engine that emits C, and morsel-parallel runs
    - {!Costmodel} — the extended Generic Cost Model
    - {!Layoutopt} — extended reasonable cuts, OBP, BPi, the exact IP
      partitioner and the online layout advisor
    - {!Workloads} — the paper's three benchmarks plus the microbenchmark *)

module Memsim = Memsim
module Storage = Storage
module Relalg = Relalg
module Engines = Engines
module Costmodel = Costmodel
module Layoutopt = Layoutopt
module Workloads = Workloads
module Rng = Mrdb_util.Rng
module Texttab = Mrdb_util.Texttab

(** A database instance: catalog + simulated memory hierarchy. *)
module Db : sig
  type t

  val create : ?params:Memsim.Params.t -> ?simulate:bool -> unit -> t
  (** [simulate] (default true) attaches a memory-hierarchy simulator; with
      [false] queries run untraced at full speed. *)

  val catalog : t -> Storage.Catalog.t
  val hier : t -> Memsim.Hierarchy.t option

  val create_table :
    t ->
    string ->
    (string * Storage.Value.ty) list ->
    ?layout:string list list ->
    unit ->
    unit
  (** Create a table; [layout] gives attribute-name groups (default: row
      store). *)

  val insert : t -> string -> Storage.Value.t array -> unit

  val exec :
    ?engine:Engines.Engine.kind ->
    ?params:Storage.Value.t array ->
    t ->
    string ->
    Engines.Runtime.result
  (** Parse, plan and run a SQL statement (default engine: JiT). *)

  val exec_measured :
    ?engine:Engines.Engine.kind ->
    ?params:Storage.Value.t array ->
    t ->
    string ->
    Engines.Runtime.result * Memsim.Stats.t

  val explain : ?params:Storage.Value.t array -> t -> string -> string
  (** EXPLAIN, as [mrdb_cli explain] prints it ({!Obs_explain.render}):
      the operator tree with each operator's predicted cycles, the
      access-pattern program and the whole-query estimate. *)

  val set_layout : t -> string -> string list list -> unit
  (** Repartition a table into the given attribute-name groups. *)

  val layout_of : t -> string -> string list list

  val optimize_layout :
    ?threshold:float ->
    t ->
    (string * float) list ->
    (string * string list list) list
  (** [optimize_layout db workload] runs BPi over the (SQL, frequency)
      workload, applies the resulting layouts, and returns them. *)
end

val version : string
