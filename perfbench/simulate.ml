(* simulate: the loop that regenerates the paper's figures.

   CH at scale 0.5 on the default Nehalem Memsim hierarchy: order_line
   (about 9.6 MB) is past the simulated 8 MiB L3, the paper's memory-bound
   regime.  Set-up solves the IP layout for Ch.mixed_workload.  The timed
   phase cycles through the row, column and IP layouts, one
   Catalog.set_layout per table each; under each layout it runs the 8
   analytic queries, the T1 insert and the T2 lookup in a seeded order with
   Engine.run_measured Jit, caches cold for every op.  T1 appends to
   order_line and later scans read those rows.  Compile, MVCC, WAL and the
   wire are not on this path. *)

open Common
module Ch = Workloads.Ch
module Engine = Engines.Engine
module Layout = Storage.Layout

let scale = 0.5
let layout_names = [| "row"; "column"; "ip" |]

type op = { layout : int; q : int; params : V.t array }
(** [q] indexes the 8 analytic queries followed by T1 and T2. *)

type system = {
  hier : Memsim.Hierarchy.t;
  ch : Ch.t;
  layouts : (string -> Layout.t) array;
  solve_s : float;
  cost_evals : int;
}

let setup () =
  let hier = Memsim.Hierarchy.create () in
  let ch = Ch.build ~hier ~scale () in
  let cat = ch.Ch.cat in
  let chosen, solve_s =
    Trace.time (fun () ->
        Layoutopt.Optimizer.optimize ~algorithm:Layoutopt.Optimizer.Ip cat
          (Ch.mixed_workload ch))
  in
  let schema t = Storage.Relation.schema (Storage.Catalog.find cat t) in
  let ip t =
    match
      List.find_opt
        (fun (r : Layoutopt.Optimizer.table_result) -> String.equal r.table t)
        chosen
    with
    | Some r -> r.layout
    | None -> Layout.row (schema t)
  in
  {
    hier;
    ch;
    layouts =
      [| (fun t -> Layout.row (schema t)); (fun t -> Layout.column (schema t)); ip |];
    solve_s;
    cost_evals =
      List.fold_left
        (fun acc (r : Layoutopt.Optimizer.table_result) ->
          acc + r.search.Layoutopt.Bpi.cost_evaluations)
        0 chosen;
  }

(* T1's order line and T2's customer key, drawn from the seed. *)
let txn_params rng cat (q : Workloads.Workload.query) =
  let rows t = Storage.Relation.nrows (Storage.Catalog.find cat t) in
  let p = Array.copy q.params in
  (match q.name with
  | "T1" ->
      p.(4) <- V.VInt (Rng.int rng (rows "item"));
      p.(7) <- V.VInt (Rng.int_in rng 1 10);
      p.(8) <- V.VInt (Rng.int_in rng 1 10000)
  | "T2" -> p.(0) <- V.VInt (Rng.int rng (rows "customer"))
  | _ -> ());
  p

(* One block of ops per layout switch, every op once in a fixed order: the
   seed draws only the parameters, so every seed allocates alike and the
   peak RSS does not move with it. *)
let make_ops rng cat (queries : Workloads.Workload.query array) ~blocks =
  Array.concat
    (List.init blocks (fun b ->
         Array.mapi
           (fun q (query : Workloads.Workload.query) ->
             let params =
               if query.modifies || query.name = "T2" then
                 txn_params rng cat query
               else shift_params rng query.name query.params
             in
             { layout = b mod Array.length layout_names; q; params })
           queries))

let plan (q : Workloads.Workload.query) =
  Trace.span Trace.k_plan (fun () -> q.make_plan ~use_indexes:false)

(* Traced ÷ untraced wall time of each read-only op on the final data. *)
let overhead sys queries =
  let traced = ref 0.0 and untraced = ref 0.0 in
  let cat = sys.ch.Ch.cat in
  Array.iter
    (fun (q : Workloads.Workload.query) ->
      if not q.modifies then
        for _ = 1 to 2 do
          let p = q.make_plan ~use_indexes:false in
          let _, t =
            Trace.time (fun () ->
                Engine.run_measured Engine.Jit cat p ~params:q.params)
          in
          traced := !traced +. t;
          let _, t =
            Trace.time (fun () ->
                Memsim.Hierarchy.without_tracing sys.hier (fun () ->
                    Engine.run Engine.Jit cat p ~params:q.params))
          in
          untraced := !untraced +. t
        done)
    queries;
  !traced /. !untraced

let run (a : args) =
  (* whole cycles of 10 ops under each of the 3 layouts *)
  let blocks = 3 * max 1 ((a.ops + 29) / 30) in
  if a.trace then Trace.reserve ~capacity:(31 * blocks);
  let k = Calib.create ~capacity:(max (2 * Calib.around) ((16 * blocks) + 1)) in
  let sys, setup_t = set_up k setup in
  if a.ops = 0 then setup_only setup_t else
  let cat = sys.ch.Ch.cat in
  let queries = Array.of_list (sys.ch.Ch.queries @ sys.ch.Ch.transactions) in
  let nq = Array.length queries in
  let ops = make_ops (Rng.create a.seed) cat queries ~blocks in
  let n = Array.length ops in
  (* timed phase: a calibration sample before every op and after the last;
     an op's busy time includes the layout sweep before it, if any *)
  let lat = Array.make n 0.0 and busy = Array.make n 0.0 in
  let answers = Array.make n "" in
  let failures = ref [] and sweeps = ref [] in
  let accesses = ref 0 and cycles = ref 0 in
  let gc0 = gc_mark () in
  Trace.start ();
  Array.iteri
    (fun i o ->
      Calib.sample k;
      let sweep =
        if i mod nq <> 0 then 0.0
        else
          let (), t =
            Trace.time (fun () ->
                Trace.span Trace.k_layout (fun () ->
                    List.iter
                      (fun t ->
                        Storage.Catalog.set_layout cat t
                          (sys.layouts.(o.layout) t))
                      Ch.tables))
          in
          sweeps := t :: !sweeps;
          t
      in
      let t = Trace.now () in
      (match
         Trace.op i (fun () ->
             let p = plan queries.(o.q) in
             Trace.span Trace.k_traced (fun () ->
                 Engine.run_measured Engine.Jit cat p ~params:o.params))
       with
      | r, st ->
          lat.(i) <- Trace.since t;
          answers.(i) <- digest r;
          accesses := !accesses + st.Memsim.Stats.accesses;
          cycles := !cycles + Memsim.Stats.total_cycles st
      | exception e ->
          lat.(i) <- Trace.since t;
          failures :=
            Printf.sprintf "op %d (%s): %s" i queries.(o.q).name
              (describe_exn e)
            :: !failures);
      busy.(i) <- sweep +. lat.(i))
    ops;
  Calib.sample k;
  Trace.stop ();
  let factors = Calib.op_factors k ~every:1 ~n in
  let run_factor = Calib.factor (Calib.samples k) in
  let gc = gc_layers gc0 ~ops:n in
  let rss = peak_rss_mb () in
  let bpr = bytes_per_row cat in
  let overhead_x = if a.trace then overhead sys queries else 0.0 in
  (* answer check: replay every op with the Bulk engine on a fresh copy of
     the data, inserts included *)
  let reference = Ch.build ~scale () in
  let ref_queries =
    Array.of_list (reference.Ch.queries @ reference.Ch.transactions)
  in
  Array.iteri
    (fun i o ->
      let p = ref_queries.(o.q).make_plan ~use_indexes:false in
      let expected =
        digest (Engine.run Engine.Bulk reference.Ch.cat p ~params:o.params)
      in
      if answers.(i) <> "" && answers.(i) <> expected then
        failures :=
          Printf.sprintf "op %d (%s under %s): answer differs from Bulk" i
            queries.(o.q).name layout_names.(o.layout)
          :: !failures)
    ops;
  let types = nq * Array.length layout_names in
  let type_of i = (ops.(i).layout * nq) + ops.(i).q in
  let traced = Trace.durations Trace.k_traced in
  let per_op x = float_of_int x /. float_of_int (max 1 n) in
  let run_time ?n name unit_ ~scale s =
    time_metric ?n ~scale name unit_ ~factor:run_factor s
  in
  {
    attempted = n;
    failures = List.rev !failures;
    e2e =
      (setup_metric setup_t
       :: op_metrics ~types:(types, type_of) ~tail:95.0 ~busy ~lat ~factors ())
      @ [ metric "peak_rss_mb" "MB" rss ];
    layers =
      Array.to_list
        (Array.mapi
           (fun q (qq : Workloads.Workload.query) ->
             run_time ~n:(n / nq) ("memsim.traced_ms." ^ qq.name) "ms"
               ~scale:1e3
               (Trace.median
                  (Trace.durations ~keep:(fun i -> ops.(i).q = q) Trace.k_traced)))
           queries)
      @ [
          run_time ~n "memsim.ns_per_access" "ns" ~scale:1e9
            (Trace.sum traced /. float_of_int (max 1 !accesses));
          metric "memsim.accesses_per_op" "count" ~n (per_op !accesses);
          metric "memsim.sim_cycles" "count" ~n (float_of_int !cycles);
          metric "memsim.overhead_x" "x" overhead_x;
          run_time ~n "relalg.plan_us" "us" ~scale:1e6
            (Trace.median (Trace.durations Trace.k_plan));
          run_time ~n:(List.length !sweeps) "storage.repartition_ms" "ms"
            ~scale:1e3
            (Trace.median (Array.of_list !sweeps));
          time_metric ~scale:1e3 "layoutopt.solve_ms" "ms"
            ~factor:setup_t.factor sys.solve_s;
          metric "layoutopt.cost_evals" "count" (float_of_int sys.cost_evals);
          metric "storage.bytes_per_row" "B/row" bpr;
          kernel_metric k;
        ]
      @ gc;
    counts =
      [
        ("memsim.accesses_per_op", per_op !accesses);
        ("memsim.sim_cycles", float_of_int !cycles);
        ("layoutopt.cost_evals", float_of_int sys.cost_evals);
        ("storage.bytes_per_row", bpr);
      ]
      @ List.map (fun (m : metric) -> (m.name, m.value)) gc;
  }
