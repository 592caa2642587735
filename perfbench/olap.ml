(* olap: the analytic path a user drives with SQL text.

   CH at scale 1.0, untraced, under the layout the IP optimizer picks for
   the 8 analytic queries.  Each op is one of CH1-CH6, CH8, CH10 as SQL
   text with parameters from a seeded pool, run through Sql.parse,
   Planner.plan and the Compiled engine on one domain.  Set-up runs every
   distinct (query, parameters) pair once, so the timed phase pays no cc
   run: the compiled engine bakes parameter values into its C source. *)

open Common
module Ch = Workloads.Ch
module Engine = Engines.Engine

let scale = 1.0
let pool_size = 4

type op = { q : int; p : int }  (** query index, parameter-pool index *)

(* Rounds of seeded permutations of the 8 queries, so every query runs
   equally often and a percentile over the mix stays inside one query's
   block. *)
let make_ops rng ~n ~queries =
  let rounds = (n + queries - 1) / queries in
  let ops = ref [] in
  for _ = 1 to rounds do
    Array.iter
      (fun q -> ops := { q; p = Rng.int rng pool_size } :: !ops)
      (Rng.permutation rng queries)
  done;
  Array.of_list (List.rev !ops)

let run_query cat sql params =
  let logical = Trace.span Trace.k_parse (fun () -> Relalg.Sql.parse cat sql) in
  let plan =
    Trace.span Trace.k_plan (fun () -> Relalg.Planner.plan cat logical)
  in
  Trace.span Trace.k_exec (fun () ->
      Engine.run Engine.Compiled cat plan ~params)

type system = {
  ch : Ch.t;
  solve_s : float;
  cost_evals : int;
  repartition_s : float;
  compiles : int;
}

let setup ~sql ~pool () =
  let misses0 = counter "mrdb_compiled_cache_misses_total" in
  let ch = Ch.build ~scale () in
  let cat = ch.Ch.cat in
  let plans = Workloads.Workload.plans ~use_indexes:false ch.Ch.queries in
  let chosen, solve_s =
    Trace.time (fun () ->
        Layoutopt.Optimizer.optimize ~algorithm:Layoutopt.Optimizer.Ip cat
          plans)
  in
  let (), repartition_s =
    Trace.time (fun () -> Layoutopt.Optimizer.apply cat chosen)
  in
  Array.iteri
    (fun q params ->
      Array.iter (fun p -> ignore (run_query cat sql.(q) p)) params)
    pool;
  {
    ch;
    solve_s;
    cost_evals =
      List.fold_left
        (fun acc (r : Layoutopt.Optimizer.table_result) ->
          acc + r.search.Layoutopt.Bpi.cost_evaluations)
        0 chosen;
    repartition_s;
    compiles = counter "mrdb_compiled_cache_misses_total" - misses0;
  }

let run (a : args) =
  let rng = Rng.create a.seed in
  (* the query texts and default parameters do not depend on the data *)
  let proto = Ch.build ~scale:0.001 () in
  let queries = Array.of_list proto.Ch.queries in
  let nq = Array.length queries in
  let sql = Array.map (fun (q : Workloads.Workload.query) -> q.sql) queries in
  let pool = param_pool rng ~size:pool_size proto.Ch.queries in
  let ops = make_ops rng ~n:a.ops ~queries:nq in
  let n = Array.length ops in
  if a.trace then Trace.reserve ~capacity:(4 * n);
  let k = Calib.create ~capacity:(max (2 * Calib.around) (n + 1)) in
  let sys, setup_t = set_up k (setup ~sql ~pool) in
  if a.ops = 0 then setup_only setup_t else
  let cat = sys.ch.Ch.cat in
  (* timed phase: a calibration sample before every op and after the last *)
  let lat = Array.make n 0.0 and answers = Array.make n "" in
  let failures = ref [] in
  let fallbacks0 = counter "mrdb_compiled_fallbacks_total" in
  let gc0 = gc_mark () in
  Trace.start ();
  Array.iteri
    (fun i { q; p } ->
      Calib.sample k;
      let t = Trace.now () in
      match Trace.op i (fun () -> run_query cat sql.(q) pool.(q).(p)) with
      | r ->
          lat.(i) <- Trace.since t;
          answers.(i) <- digest r
      | exception e ->
          lat.(i) <- Trace.since t;
          failures :=
            Printf.sprintf "op %d (%s): %s" i queries.(q).name (describe_exn e)
            :: !failures)
    ops;
  Calib.sample k;
  Trace.stop ();
  let factors = Calib.op_factors k ~every:1 ~n in
  let run_factor = Calib.factor (Calib.samples k) in
  let gc = gc_layers gc0 ~ops:n in
  let fallbacks = counter "mrdb_compiled_fallbacks_total" - fallbacks0 in
  let rss = peak_rss_mb () in
  (* answer check: every op against the Bulk engine on the same data *)
  let reference = Hashtbl.create 32 in
  Array.iteri
    (fun i { q; p } ->
      if answers.(i) <> "" then begin
        let expected =
          match Hashtbl.find_opt reference (q, p) with
          | Some d -> d
          | None ->
              let plan =
                Relalg.Planner.plan cat (Relalg.Sql.parse cat sql.(q))
              in
              let d = digest (Engine.run Engine.Bulk cat plan ~params:pool.(q).(p)) in
              Hashtbl.add reference (q, p) d;
              d
        in
        if answers.(i) <> expected then
          failures :=
            Printf.sprintf "op %d (%s): answer differs from Bulk" i
              queries.(q).name
            :: !failures
      end)
    ops;
  let type_of i = ops.(i).q in
  let exec_s q =
    Trace.median (Trace.durations ~keep:(fun i -> type_of i = q) Trace.k_exec)
  in
  let per_call k = Trace.median (Trace.durations k) in
  let native_ratio = 1.0 -. (float_of_int fallbacks /. float_of_int n) in
  let bpr = bytes_per_row cat in
  let run_time ?n name unit_ ~scale s =
    time_metric ?n ~scale name unit_ ~factor:run_factor s
  in
  let setup_time name s =
    time_metric ~scale:1e3 name "ms" ~factor:setup_t.factor s
  in
  {
    attempted = n;
    failures = List.rev !failures;
    e2e =
      (setup_metric setup_t
       :: op_metrics ~types:(nq, type_of) ~tail:95.0 ~busy:lat ~lat ~factors ())
      @ [ metric "peak_rss_mb" "MB" rss ];
    layers =
      [
        run_time ~n "relalg.parse_us" "us" ~scale:1e6 (per_call Trace.k_parse);
        run_time ~n "relalg.plan_us" "us" ~scale:1e6 (per_call Trace.k_plan);
      ]
      @ Array.to_list
          (Array.mapi
             (fun q (qq : Workloads.Workload.query) ->
               run_time ~n:(n / nq) ("engines.exec_ms." ^ qq.name) "ms"
                 ~scale:1e3 (exec_s q))
             queries)
      @ [
          metric "engines.native_ratio" "ratio" ~n native_ratio;
          metric "engines.compiles" "count" (float_of_int sys.compiles);
          setup_time "engines.compile_ms"
            (Obs.Metrics.percentile
               (Obs.Metrics.histogram "mrdb_compiled_compile_seconds")
               50.0);
          setup_time "layoutopt.solve_ms" sys.solve_s;
          metric "layoutopt.cost_evals" "count" (float_of_int sys.cost_evals);
          setup_time "storage.repartition_ms" sys.repartition_s;
          metric "storage.bytes_per_row" "B/row" bpr;
          kernel_metric k;
        ]
      @ gc;
    (* The GC counts are left out: they repeat to within 0.01% between runs
       of a seed, but not exactly. *)
    counts =
      [
        ("engines.native_ratio", native_ratio);
        ("engines.compiles", float_of_int sys.compiles);
        ("layoutopt.cost_evals", float_of_int sys.cost_evals);
        ("storage.bytes_per_row", bpr);
      ];
  }
