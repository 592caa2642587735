(** Engine dispatch and measured execution.

    Five processing models over the same physical plans: Volcano iterators,
    bulk (column-at-a-time), vectorized (X100-style, cache-resident
    vectors), HYRISE-style (bulk with per-value call costs) and JiT
    (fused compiled pipelines).  Each can additionally run morsel-parallel
    on OCaml 5 domains via [?domains] — see {!Parallel}.

    A sixth kind, [Compiled], lowers supported plans to native code via
    the system C compiler ({!Compiled}); it is excluded from {!all}
    because its traced/simulated behaviour is that of its {!Jit} fallback
    — use {!all_with_compiled} where parity with it matters. *)

type kind =
  | Volcano
  | Bulk
  | Vectorized
  | Hyrise
      (** A HYRISE-style hybrid-storage processor.  The paper characterizes
          HYRISE as "bulk-oriented but still relying on function calls to
          process multiple attributes within one partition", which gives it
          the same relative costs across layouts as the JiT engine but a
          much higher constant factor (Fig. 9).  It is modeled as the bulk
          dataflow charged {!Cpu_model.hyrise_per_value} per processed
          value. *)
  | Jit
  | Compiled

val all : kind list
(** The five simulated processing models (excludes [Compiled]). *)

val all_with_compiled : kind list
(** {!all} plus [Compiled], for parity tests and the CLI. *)

val name : kind -> string

val run :
  ?domains:int ->
  ?morsel_size:int ->
  kind ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  params:Storage.Value.t array ->
  Runtime.result
(** Execute the plan through {!Parallel.run}, the one way into the
    executor for every engine: Jit and Compiled hand it their
    compile-once pipeline ({!Jit.prepare}, {!Compiled.prepare}), the other
    engines a thunk that runs the plan afresh on every call.  With
    [domains > 1] a plan with a morsel shape runs morsel-parallel and
    untraced (results are identical to a sequential run); the default is
    one domain, one call of the thunk. *)

val run_measured :
  ?domains:int ->
  ?morsel_size:int ->
  kind ->
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  params:Storage.Value.t array ->
  Runtime.result * Memsim.Stats.t
(** Reset the simulator (counters and cache contents), run the query, and
    return the result together with the counters it produced
    ({!Parallel.run_measured}).  If the catalog has no hierarchy attached
    the stats are all zero.  To measure a warm run, call
    {!Memsim.Hierarchy.reset_stats} and {!run}, then read the counters.

    With [domains > 1] and a plan with a morsel shape each worker domain
    simulates its own fresh hierarchy and the returned stats are their
    {!Memsim.Stats.merge}: summed traffic and miss counters, max-over-domain
    cycle cost — the simulated analogue of parallel wall-clock time. *)
