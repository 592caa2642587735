(** Compiled query pipelines: C99 emission + system cc + dlopen.

    The paper's data-centric compilation made concrete: a plan in the
    subset {!C_emitter.emit_unit} accepts — scans, select, project, hash
    join, group-by, sort and limit over numeric, bool, date and varchar
    columns — is lowered to one C translation unit, built into a shared
    object by the system C compiler, and entered through a hand-written
    FFI stub that passes every scanned table's partition bytes directly —
    no OCaml allocation on the scan path.  One call returns a result of
    any size.

    Objects are cached by source digest, in-process (function pointers)
    and on disk (under [MRDB_COMPILE_CACHE] or the system temp dir), so a
    repeated plan never recompiles; parameters are run-time values, so
    every parameter vector of one type signature shares an object.  Each
    loaded unit is also kept per catalog under its plan and parameter
    types, so a repeated statement runs without emitting its source
    again, as long as its scanned tables keep their schema, layout and
    plain encoding; the entries die with the catalog.
    Everything else — index access, [LIKE] and other string predicates,
    compressed encodings, DML, a missing compiler ([MRDB_NO_CC] forces
    this), compile or load failures, or a scanned table whose layout
    changed since the compile — falls back to the interpreted {!Jit}
    engine, counted by the [mrdb_compiled_fallbacks_total] metric.  Under
    a profiling session the [#compile] phase is labelled [native] or
    [jit fallback: <reason>]. *)

val run :
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  params:Storage.Value.t array ->
  Runtime.result

val prepare :
  Storage.Catalog.t ->
  Relalg.Physical.t ->
  params:Storage.Value.t array ->
  unit ->
  Runtime.result
(** Compile once, step many times.  The thunk re-reads the scanned
    relations' row windows on each call, so it can serve as a morsel
    stepper under {!Parallel} (reslicing mutates the shadow relation
    between calls). *)

val cc_available : unit -> bool
(** Is a working C compiler reachable?  Consults [MRDB_NO_CC] (any value
    other than ["0"] or [""] disables compilation) and probes
    [MRDB_CC]/[cc] once per process. *)

val reset_cache : unit -> unit
(** Drop the loaded-unit entries, the in-process function cache and the
    compiler probe result (the on-disk object cache is untouched).  For
    tests. *)
