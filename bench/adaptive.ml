(* Extension bench: online/adaptive reorganization (the paper's Section VII
   direction).  A workload over the microbenchmark table shifts from
   OLTP-style point lookups (favouring the row store) to analytical scans
   (favouring decomposition); the online advisor, searching with BPi,
   observes the shift and repartitions once the predicted saving amortizes
   the copy cost.

   Gate: exactly one repartition, and the online run beats the static row
   store end-to-end (BENCH_adaptive.json, adaptive/* gates). *)

module V = Storage.Value
module Advisor = Layoutopt.Advisor

let run () =
  Common.header "Extension — adaptive layout reorganization under a shifting workload";
  let n = 100_000 in
  let phase_len = 200 in
  let make_queries cat =
    let point =
      Relalg.Planner.plan
        ~estimate:(fun _ -> Some (1.0 /. float_of_int n))
        cat
        (Relalg.Sql.parse cat "select * from R where A = $1")
    in
    let scan = Workloads.Microbench.plan cat ~sel:0.02 in
    (point, scan)
  in
  let run_workload ~adaptive_on =
    let hier = Memsim.Hierarchy.create () in
    let cat = Workloads.Microbench.build ~hier ~n () in
    let point, scan = make_queries cat in
    let adv =
      Advisor.create ~algorithm:(Layoutopt.Optimizer.Bpi 0.005) ~window:128
        ~check_every:32 ~min_benefit:0.02 ~horizon:20.0 cat
    in
    let total = ref 0 in
    let execute plan params =
      let _, st = Engines.Engine.run_measured Engines.Engine.Jit cat plan ~params in
      total := !total + Memsim.Stats.total_cycles st;
      if adaptive_on then
        List.iter
          (fun (r : Advisor.recommendation) ->
            (* repartitioning runs untraced; charge its model cost *)
            total := !total + int_of_float r.Advisor.copy_cost)
          (Advisor.observe adv plan)
    in
    (* phase 1: OLTP point lookups *)
    for i = 1 to phase_len do
      execute point [| V.VInt (i * 37 mod Workloads.Microbench.domain) |]
    done;
    (* phase 2: analytical scans *)
    for _ = 1 to phase_len do
      execute scan (Workloads.Microbench.params ~sel:0.02)
    done;
    (!total, Advisor.applied adv)
  in
  let static_cycles, _ = run_workload ~adaptive_on:false in
  let adaptive_cycles, moves = run_workload ~adaptive_on:true in
  let speedup = float_of_int static_cycles /. float_of_int adaptive_cycles in
  Common.note "static row layout : %s cycles"
    (Common.pow10_label (float_of_int static_cycles));
  Common.note "adaptive          : %s cycles (%.2fx)"
    (Common.pow10_label (float_of_int adaptive_cycles))
    speedup;
  List.iter
    (fun (r : Advisor.recommendation) ->
      Format.printf "  reorganized %s: %s -> %s (net saving %s cycles)@."
        r.Advisor.table
        (Storage.Layout.kind_label r.Advisor.current_layout)
        (Storage.Layout.kind_label r.Advisor.proposed_layout)
        (Common.pow10_label r.Advisor.net_saving))
    moves;
  Common.note
    "expected shape: the monitor leaves the row store alone during the \
     point-lookup phase, then decomposes the table once scans dominate, \
     beating the static layout even after paying the copy cost";
  Common.write_bench "BENCH_adaptive.json"
    [
      Common.pt ~bench:"adaptive" ~metric:"static_row.cycles"
        (float_of_int static_cycles);
      Common.pt ~bench:"adaptive" ~metric:"online.cycles"
        (float_of_int adaptive_cycles);
      Common.pt ~bench:"adaptive" ~metric:"online.speedup_vs_row" speedup;
      Common.pt ~bench:"adaptive" ~metric:"online.repartitions"
        (float_of_int (List.length moves));
    ]
