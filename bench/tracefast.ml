(* Trace fast path: run-batched access tracing (Hierarchy.read_run/write_run
   through Buffer and the engines) against the reference per-word tracer
   (Memsim_ref, a test-only library), on identical access streams.

   Per engine, the traced microbench scan-aggregate runs once on a default
   hierarchy and once on the reference one; rows and every simulated counter
   must be identical, and traced values/second are reported both ways.  The
   engines and Buffer make the same run calls on both hierarchies, so the
   slow time is the reference walk's, not that of a per-access call
   structure.

   Each measured run builds its own hierarchy and catalog: a measured run
   allocates intermediates from the catalog's arena, so repeated runs see
   different absolute addresses — and thus different cache set indices —
   making even two identical runs drift by a conflict miss.  Fresh
   deterministic builds put both paths on byte-identical address streams
   (see test/test_tracefast.ml).

   The sweep_insert cell times the first insert after each layout sweep:
   CH at scale 0.05 on a default hierarchy, one T1 to grow order_line (as
   the previous block's T1 does in the paper's experiment loop), then
   row -> column -> row sweeps of every table, each followed by one traced
   T1.  It reports the major-heap words and the milliseconds of each of
   those three inserts; a repartition that sized order_line for exactly
   its rows made each one copy the table.

   Results go to BENCH_trace_fastpath.json. *)

let n_rows = 100_000
let sel = 0.1
let repeats = 3

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type engine_row = {
  engine : string;
  fast_s : float;
  slow_s : float;
  accesses : int;
  identical : bool;
}

(* One traced run on a fresh deterministic catalog; only the measured query
   is timed (build and repartition are setup). *)
let run_once make_hier engine =
  let hier = make_hier () in
  let cat = Workloads.Microbench.build ~hier ~n:n_rows () in
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let plan = Workloads.Microbench.plan cat ~sel in
  let params = Workloads.Microbench.params ~sel in
  wall (fun () -> Engines.Engine.run_measured engine cat plan ~params)

let best_of make_hier engine =
  let (r0, st0), t0 = run_once make_hier engine in
  let best = ref t0 in
  for _ = 2 to repeats do
    let _, t = run_once make_hier engine in
    if t < !best then best := t
  done;
  (r0, st0, !best)

let measure_engine engine =
  let name = Engines.Engine.name engine in
  let r_fast, st_fast, t_fast = best_of Memsim.Hierarchy.create engine in
  let r_slow, st_slow, t_slow = best_of Memsim_ref.hierarchy engine in
  let rows_equal =
    List.length r_fast.Engines.Runtime.rows
      = List.length r_slow.Engines.Runtime.rows
    && List.for_all2
         (fun a b ->
           Array.for_all2 (fun x y -> Storage.Value.compare x y = 0) a b)
         r_fast.Engines.Runtime.rows r_slow.Engines.Runtime.rows
  in
  let identical = rows_equal && st_fast = st_slow in
  if not identical then
    failwith
      (Printf.sprintf
         "tracefast: %s diverged between fast and slow tracing (rows_equal=%b)"
         name rows_equal);
  {
    engine = name;
    fast_s = t_fast;
    slow_s = t_slow;
    accesses = st_fast.Memsim.Stats.accesses;
    identical;
  }

let sweep_scale = 0.05

type sweep_row = { layout : string; major_words : float; ms : float }

let sweep_insert () =
  let module Ch = Workloads.Ch in
  let module Layout = Storage.Layout in
  let ch = Ch.build ~hier:(Memsim.Hierarchy.create ()) ~scale:sweep_scale () in
  let cat = ch.Ch.cat in
  let t1 = Ch.query ch "T1" in
  let insert () =
    let plan = t1.Workloads.Workload.make_plan ~use_indexes:false in
    ignore
      (Engines.Engine.run_measured Engines.Engine.Jit cat plan
         ~params:t1.Workloads.Workload.params)
  in
  insert ();
  List.map
    (fun (layout, make) ->
      List.iter
        (fun t ->
          let schema = Storage.Relation.schema (Storage.Catalog.find cat t) in
          Storage.Catalog.set_layout cat t (make schema))
        Ch.tables;
      (* an empty minor heap: the reading holds the insert's own words *)
      Gc.minor ();
      let w0 = (Gc.quick_stat ()).Gc.major_words in
      let (), s = wall insert in
      {
        layout;
        major_words = (Gc.quick_stat ()).Gc.major_words -. w0;
        ms = 1000. *. s;
      })
    [ ("row", Layout.row); ("column", Layout.column); ("row", Layout.row) ]

let run () =
  Common.header "Trace fast path — run-batched vs. per-word access tracing";
  Common.note
    "microbench scan-aggregate, %d rows, sel %.0f%%, PDSM layout; best of %d"
    n_rows (100. *. sel) repeats;
  let rows = List.map measure_engine Engines.Engine.all in
  Printf.printf "  %-12s %10s %10s %8s %14s %14s\n" "engine" "fast (ms)"
    "slow (ms)" "speedup" "Mvalues/s fast" "Mvalues/s slow";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %10.2f %10.2f %7.2fx %14.2f %14.2f\n" r.engine
        (1000. *. r.fast_s) (1000. *. r.slow_s) (r.slow_s /. r.fast_s)
        (float_of_int r.accesses /. r.fast_s /. 1e6)
        (float_of_int r.accesses /. r.slow_s /. 1e6))
    rows;
  Common.note
    "all engines: rows and every simulated counter identical on both paths";
  Common.note
    "first T1 after each layout sweep, CH scale %.2f (order_line grown by \
     one T1 first):"
    sweep_scale;
  let sweeps = sweep_insert () in
  Printf.printf "  %-12s %14s %10s\n" "sweep to" "major words" "ms";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %14.0f %10.2f\n" r.layout r.major_words r.ms)
    sweeps;
  let worst f = List.fold_left (fun acc r -> Float.max acc (f r)) 0. sweeps in
  let bench = "trace_fastpath" in
  let pt = Common.pt ~bench in
  Common.write_bench "BENCH_trace_fastpath.json"
    ([
       pt ~metric:"rows" ~unit_:"rows" (float_of_int n_rows);
       pt ~metric:"selectivity" sel;
       pt ~metric:"repeats" (float_of_int repeats);
       pt ~metric:"sweep_insert.major_words" ~unit_:"words"
         (worst (fun r -> r.major_words));
       pt ~metric:"sweep_insert.ms" ~unit_:"ms" (worst (fun r -> r.ms));
     ]
    @ List.concat_map
        (fun r ->
          let m name = Printf.sprintf "engine.%s.%s" r.engine name in
          [
            pt ~metric:(m "fast_seconds") ~unit_:"s" r.fast_s;
            pt ~metric:(m "slow_seconds") ~unit_:"s" r.slow_s;
            pt ~metric:(m "speedup") ~unit_:"x" (r.slow_s /. r.fast_s);
            pt ~metric:(m "accesses") (float_of_int r.accesses);
            pt
              ~metric:(m "traced_values_per_sec_fast")
              (float_of_int r.accesses /. r.fast_s);
            pt
              ~metric:(m "traced_values_per_sec_slow")
              (float_of_int r.accesses /. r.slow_s);
            pt
              ~metric:(m "counters_identical")
              ~unit_:"bool"
              (if r.identical then 1. else 0.);
          ])
        rows)
