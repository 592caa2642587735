(* Tests for the IP-exact partitioner and the online layout advisor. *)

module V = Storage.Value
module Schema = Storage.Schema
module Layout = Storage.Layout
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Emit = Costmodel.Emit
module Ip = Layoutopt.Ip
module Advisor = Layoutopt.Advisor
module Optimizer = Layoutopt.Optimizer
module Rng = Mrdb_util.Rng

(* ------------------------------------------------------------------ *)
(* Random synthetic IP problems (no catalog needed)                    *)
(* ------------------------------------------------------------------ *)

let problem_of_seed ~max_attrs seed =
  let rng = Rng.create (0x1b_0000 + seed) in
  let n_attrs = 1 + Rng.int rng max_attrs in
  let widths = Array.init n_attrs (fun _ -> 1 + Rng.int rng 16) in
  let rows = 1_000 + Rng.int rng 100_000 in
  let n_terms = 1 + Rng.int rng 5 in
  let terms =
    List.init n_terms (fun _ ->
        let n_a = 1 + Rng.int rng n_attrs in
        let attrs =
          List.sort_uniq compare (List.init n_a (fun _ -> Rng.int rng n_attrs))
        in
        let kind =
          match Rng.int rng 3 with
          | 0 -> Emit.Seq
          | 1 -> Emit.Seq_cond (0.01 +. (0.98 *. Rng.float rng))
          | _ -> Emit.Rand
        in
        let touches =
          match kind with
          | Emit.Seq -> rows
          | Emit.Seq_cond s -> max 1 (int_of_float (s *. float_of_int rows))
          | Emit.Rand -> 1 + Rng.int rng 1024
        in
        let weight = float_of_int (1 + Rng.int rng 20) in
        { Ip.attrs; weight; kind; touches })
    |> Array.of_list
  in
  { Ip.n_attrs; widths; rows; terms; params = Memsim.Params.nehalem }

(* the acceptance property: on <=6 attributes the branch-and-bound result
   is exactly the brute-force optimum over all set partitions *)
let qcheck_ip_matches_brute_force =
  QCheck.Test.make ~count:200
    ~name:"IP solve = brute force over all partitions (<=6 attrs, 200 cases)"
    QCheck.small_nat
    (fun seed ->
      let p = problem_of_seed ~max_attrs:6 seed in
      let frontier, _stats = Ip.solve p in
      let _, oracle_cost = Ip.brute_force p in
      match frontier with
      | [] -> false
      | (best_p, best_c) :: rest ->
          (* head is the optimum, restated by the public objective *)
          Float.abs (best_c -. oracle_cost)
            <= 1e-6 *. Float.max 1.0 oracle_cost
          && Float.abs (Ip.objective p best_p -. best_c)
               <= 1e-9 *. Float.max 1.0 best_c
          (* frontier is sorted ascending *)
          && fst
               (List.fold_left
                  (fun (ok, prev) (_, c) -> (ok && prev <= c, c))
                  (true, best_c) rest))

(* partitions produced by the solver are genuine partitions of 0..n-1 *)
let qcheck_ip_solutions_are_partitions =
  QCheck.Test.make ~count:100 ~name:"IP frontier holds valid partitions"
    QCheck.small_nat
    (fun seed ->
      let p = problem_of_seed ~max_attrs:6 seed in
      let frontier, _ = Ip.solve p in
      List.for_all
        (fun (parts, _) ->
          List.concat parts |> List.sort compare
          = List.init p.Ip.n_attrs Fun.id
          && List.for_all (fun g -> g <> []) parts)
        frontier)

(* ------------------------------------------------------------------ *)
(* Random real schemas: Ip is never worse than Bpi on the model cost   *)
(* ------------------------------------------------------------------ *)

let random_catalog_and_mix seed =
  let rng = Rng.create (0xad_0000 + seed) in
  let n_cols = 6 + Rng.int rng 4 in
  let names = List.init n_cols (fun i -> Printf.sprintf "C%d" i) in
  let schema = Schema.make "T" (List.map (fun n -> (n, V.Int)) names) in
  let cat = Catalog.create () in
  let rel = Catalog.add cat schema (Layout.row schema) in
  let n = 2_000 + Rng.int rng 8_000 in
  Relation.load_int_rows rel ~n (fun ~row dst ->
      ignore row;
      for i = 0 to n_cols - 1 do
        dst.(i) <- Rng.int rng 1000
      done);
  let random_cols () =
    let k = 1 + Rng.int rng (n_cols - 1) in
    List.sort_uniq compare (List.init k (fun _ -> Rng.int rng n_cols))
  in
  let query () =
    let sel = 0.002 +. (Rng.float rng *. 0.5) in
    let pred_col = Rng.int rng n_cols in
    let pred =
      Relalg.Expr.Cmp
        (Relalg.Expr.Lt, Relalg.Expr.Col pred_col, Relalg.Expr.Param 1)
    in
    let cols = random_cols () in
    let logical =
      Relalg.Plan.Project
        ( Relalg.Plan.Select (Relalg.Plan.Scan "T", pred),
          List.map
            (fun c -> (Relalg.Expr.Col c, Printf.sprintf "C%d" c))
            cols )
    in
    let plan =
      Relalg.Planner.plan
        ~estimate:(fun e -> if e = pred then Some sel else None)
        cat logical
    in
    (plan, float_of_int (1 + Rng.int rng 10))
  in
  let mix = List.init (1 + Rng.int rng 3) (fun _ -> query ()) in
  (cat, mix)

let qcheck_ip_never_worse_than_bpi =
  QCheck.Test.make ~count:12
    ~name:"Ip never worse than Bpi on random schemas/workloads"
    QCheck.small_nat
    (fun seed ->
      let cat, mix = random_catalog_and_mix seed in
      let ip = Optimizer.optimize_table ~algorithm:Optimizer.Ip cat "T" mix in
      let bpi =
        Optimizer.optimize_table ~algorithm:(Optimizer.Bpi 0.005) cat "T" mix
      in
      ip.Optimizer.estimated_cost <= bpi.Optimizer.estimated_cost +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Empty-input edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_percentile_empty_histogram () =
  let h = Obs.Metrics.histogram "test_advisor_empty_hist" in
  Alcotest.(check (float 1e-9)) "p50 of empty histogram" 0.0
    (Obs.Metrics.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p99 of empty histogram" 0.0
    (Obs.Metrics.percentile h 99.0);
  Alcotest.(check int) "still empty" 0 (Obs.Metrics.histogram_count h)

let test_copy_cost_empty_table () =
  let cat = Catalog.create () in
  let schema = Schema.make "E" [ ("A", V.Int); ("B", V.Int) ] in
  let _ = Catalog.add cat schema (Layout.row schema) in
  Alcotest.(check (float 1e-9)) "zero-row table reorganizes for free" 0.0
    (Advisor.copy_cost cat "E")

let test_ip_empty_table_and_schema () =
  (* zero rows: every partitioning costs 0 and solve still terminates *)
  let cat = Catalog.create () in
  let schema = Schema.make "E" [ ("A", V.Int); ("B", V.Int) ] in
  let _ = Catalog.add cat schema (Layout.row schema) in
  let p = Ip.problem_of_workload cat "E" [] in
  Alcotest.(check int) "no terms from an empty mix" 0 (Array.length p.Ip.terms);
  let frontier, _ = Ip.solve p in
  Alcotest.(check bool) "solver returns candidates" true (frontier <> []);
  List.iter
    (fun (parts, c) ->
      Alcotest.(check (float 1e-9)) "all zero cost" 0.0 c;
      Alcotest.(check (float 1e-9)) "objective agrees" 0.0 (Ip.objective p parts))
    frontier

(* ------------------------------------------------------------------ *)
(* Workload window                                                     *)
(* ------------------------------------------------------------------ *)

let test_workload_window_merging_and_eviction () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:1_000 () in
  let scan1 = Workloads.Microbench.plan cat ~sel:0.01 in
  let scan2 = Workloads.Microbench.plan cat ~sel:0.5 in
  (* 13 observations stay below the default check interval *)
  let adv = Advisor.create ~window:4 cat in
  let observe plan = ignore (Advisor.observe adv plan) in
  let window_size () =
    Obs.Metrics.gauge_value (Obs.Metrics.gauge "mrdb_advisor_window_size")
  in
  Alcotest.(check int) "empty" 0 (List.length (Advisor.mix adv));
  observe scan1;
  observe scan1;
  observe scan2;
  let freqs =
    Advisor.mix adv |> List.map snd |> List.sort compare
  in
  Alcotest.(check (list (float 1e-9))) "merged frequencies" [ 1.0; 2.0 ] freqs;
  Alcotest.(check (list string)) "touched tables" [ "R" ]
    (Optimizer.tables cat (Advisor.mix adv));
  (* eviction keeps the newest [window] plans *)
  for _ = 1 to 10 do
    observe scan2
  done;
  Alcotest.(check (float 1e-9)) "bounded" 4.0 (window_size ());
  Alcotest.(check (float 1e-9)) "bounded mix" 4.0
    (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Advisor.mix adv));
  Alcotest.(check int) "total observations keep counting" 13
    (Advisor.observed adv);
  Alcotest.(check int) "old plans evicted" 1 (List.length (Advisor.mix adv))

(* ------------------------------------------------------------------ *)
(* Advisor loop                                                        *)
(* ------------------------------------------------------------------ *)

let test_recommend_scan_mix_profitable () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  let mix = [ (Workloads.Microbench.plan cat ~sel:0.01, 64.0) ] in
  let recs = Advisor.recommend ~min_benefit:0.01 ~horizon:50.0 cat mix in
  match recs with
  | [ r ] ->
      Alcotest.(check string) "table" "R" r.Advisor.table;
      Alcotest.(check bool) "proposes decomposition" false
        (Layout.is_row r.Advisor.proposed_layout);
      Alcotest.(check bool) "profitable" true r.Advisor.profitable;
      Alcotest.(check bool) "cheaper than current" true
        (r.Advisor.proposed_cost < r.Advisor.current_cost);
      Alcotest.(check bool) "copy cost accounted" true (r.Advisor.copy_cost > 0.0);
      (* recommend never mutates *)
      Alcotest.(check bool) "catalog untouched" true
        (Layout.is_row (Relation.layout (Catalog.find cat "R")))
  | other -> Alcotest.failf "expected one recommendation, got %d" (List.length other)

let test_apply_then_stable () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  let adv = Advisor.create ~min_benefit:0.01 ~horizon:50.0 cat in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  for _ = 1 to 16 do
    ignore (Advisor.observe adv scan)
  done;
  let applied = Advisor.apply adv (Advisor.advise adv) in
  Alcotest.(check bool) "repartitioned" true (applied <> []);
  Alcotest.(check bool) "layout changed" false
    (Layout.is_row (Relation.layout (Catalog.find cat "R")));
  (* second pass: nothing left to do *)
  let again = Advisor.apply adv (Advisor.advise adv) in
  Alcotest.(check int) "stable after apply" 0 (List.length again);
  Alcotest.(check int) "history kept" 1 (List.length (Advisor.applied adv));
  (* data unharmed: the query still answers *)
  let r =
    Engines.Engine.run Engines.Engine.Jit cat
      (Workloads.Microbench.plan cat ~sel:0.01)
      ~params:(Workloads.Microbench.params ~sel:0.01)
  in
  Alcotest.(check int) "aggregate row present" 1
    (List.length r.Engines.Runtime.rows)

let test_observe_repartitions_on_drift () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  let adv =
    Advisor.create ~window:64 ~check_every:16 ~min_benefit:0.01 ~horizon:50.0
      cat
  in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  let events = ref [] in
  for _ = 1 to 64 do
    events := !events @ Advisor.observe adv scan
  done;
  Alcotest.(check bool) "repartitioned on drift" true (!events <> []);
  Alcotest.(check bool) "no longer a pure row store" false
    (Layout.is_row (Relation.layout (Catalog.find cat "R")))

let test_stale_recommendation_not_applied () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  let adv = Advisor.create ~min_benefit:0.01 ~horizon:50.0 cat in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  for _ = 1 to 16 do
    ignore (Advisor.observe adv scan)
  done;
  let recs = Advisor.advise adv in
  (* the catalog moves underneath the advisor before it applies *)
  Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let applied = Advisor.apply adv recs in
  Alcotest.(check int) "stale advice dropped" 0 (List.length applied);
  Alcotest.(check bool) "layout is the concurrent writer's" true
    (Layout.equal Workloads.Microbench.pdsm_layout
       (Relation.layout (Catalog.find cat "R")))

(* ------------------------------------------------------------------ *)
(* Section VII monitor: the online loop under BPi                      *)
(* ------------------------------------------------------------------ *)

let bpi = Optimizer.Bpi 0.005

let point_plan cat n =
  Relalg.Planner.plan
    ~estimate:(fun _ -> Some (1.0 /. float_of_int n))
    cat
    (Relalg.Sql.parse cat "select * from R where A = $1")

let test_no_reorg_before_check_interval () =
  let hier = Memsim.Hierarchy.create () in
  let n = 20_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  let m = Advisor.create ~algorithm:bpi ~check_every:50 cat in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  for _ = 1 to 49 do
    Alcotest.(check int) "silent before interval" 0
      (List.length (Advisor.observe m scan))
  done;
  Alcotest.(check int) "observed counter" 49 (Advisor.observed m)

let test_reorganizes_scan_workload () =
  let hier = Memsim.Hierarchy.create () in
  let n = 50_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  let m =
    Advisor.create ~algorithm:bpi ~window:64 ~check_every:16
      ~min_benefit:0.01 ~horizon:50.0 cat
  in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  let events = ref [] in
  for _ = 1 to 64 do
    events := !events @ Advisor.observe m scan
  done;
  Alcotest.(check bool) "reorganized at least once" true (!events <> []);
  let rel = Storage.Catalog.find cat "R" in
  Alcotest.(check bool) "no longer a pure row store" false
    (Storage.Layout.is_row (Storage.Relation.layout rel));
  (* data survives and queries still answer *)
  let r =
    Engines.Engine.run Engines.Engine.Jit cat
      (Workloads.Microbench.plan cat ~sel:0.01)
      ~params:(Workloads.Microbench.params ~sel:0.01)
  in
  Alcotest.(check int) "aggregate row present" 1
    (List.length r.Engines.Runtime.rows)

let test_stable_when_layout_already_good () =
  let hier = Memsim.Hierarchy.create () in
  let n = 50_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  (* start from the layout the optimizer would pick *)
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let m =
    Advisor.create ~algorithm:bpi ~window:64 ~check_every:16
      ~min_benefit:0.01 cat
  in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  let events = ref [] in
  for _ = 1 to 64 do
    events := !events @ Advisor.observe m scan
  done;
  (* it may refine once, but must not thrash *)
  Alcotest.(check bool) "at most one adjustment" true (List.length !events <= 1);
  let after = List.length (Advisor.applied m) in
  for _ = 1 to 64 do
    events := !events @ Advisor.observe m scan
  done;
  Alcotest.(check int) "no further churn" after
    (List.length (Advisor.applied m))

let test_copy_cost_blocks_tiny_benefit () =
  let hier = Memsim.Hierarchy.create () in
  let n = 50_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  (* horizon so short that a reorganization can never pay off *)
  let m =
    Advisor.create ~algorithm:bpi ~window:64 ~check_every:16
      ~min_benefit:0.01 ~horizon:0.001 cat
  in
  let scan = Workloads.Microbench.plan cat ~sel:0.01 in
  for _ = 1 to 64 do
    ignore (Advisor.observe m scan)
  done;
  Alcotest.(check int) "copy cost dominates: no reorganization" 0
    (List.length (Advisor.applied m));
  let rel = Storage.Catalog.find cat "R" in
  Alcotest.(check bool) "layout untouched" true
    (Storage.Layout.is_row (Storage.Relation.layout rel))

let test_copy_cost_positive_and_scales () =
  let hier = Memsim.Hierarchy.create () in
  let small = Workloads.Microbench.build ~hier ~n:1_000 () in
  let big = Workloads.Microbench.build ~hier:(Memsim.Hierarchy.create ()) ~n:10_000 () in
  let c_small = Advisor.copy_cost small "R" in
  let c_big = Advisor.copy_cost big "R" in
  Alcotest.(check bool) "positive" true (c_small > 0.0);
  Alcotest.(check bool) "scales with rows" true (c_big > 5.0 *. c_small)

let test_mixed_workload_keeps_useful_row_store () =
  let hier = Memsim.Hierarchy.create () in
  let n = 50_000 in
  let cat = Workloads.Microbench.build ~hier ~n () in
  let m =
    Advisor.create ~algorithm:bpi ~window:64 ~check_every:64
      ~min_benefit:0.01 ~horizon:20.0 cat
  in
  let point = point_plan cat n in
  (* a purely point-lookup workload on an already point-friendly layout *)
  for _ = 1 to 64 do
    ignore (Advisor.observe m point)
  done;
  let rel = Storage.Catalog.find cat "R" in
  (* point lookups read the whole tuple: decomposition cannot pay off *)
  Alcotest.(check bool) "row store kept for point lookups" true
    (Storage.Layout.n_partitions (Storage.Relation.layout rel) <= 2)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_ip_matches_brute_force;
    QCheck_alcotest.to_alcotest qcheck_ip_solutions_are_partitions;
    QCheck_alcotest.to_alcotest qcheck_ip_never_worse_than_bpi;
    Alcotest.test_case "percentile of empty histogram is 0" `Quick
      test_percentile_empty_histogram;
    Alcotest.test_case "copy cost of empty table is 0" `Quick
      test_copy_cost_empty_table;
    Alcotest.test_case "IP handles empty tables" `Quick
      test_ip_empty_table_and_schema;
    Alcotest.test_case "workload window merges and evicts" `Quick
      test_workload_window_merging_and_eviction;
    Alcotest.test_case "recommend: scan mix is profitable" `Quick
      test_recommend_scan_mix_profitable;
    Alcotest.test_case "apply then stable" `Quick test_apply_then_stable;
    Alcotest.test_case "observe repartitions on drift" `Quick
      test_observe_repartitions_on_drift;
    Alcotest.test_case "stale recommendation not applied" `Quick
      test_stale_recommendation_not_applied;
    Alcotest.test_case "silent before interval" `Quick
      test_no_reorg_before_check_interval;
    Alcotest.test_case "reorganizes scan workload" `Quick
      test_reorganizes_scan_workload;
    Alcotest.test_case "stable when already good" `Quick
      test_stable_when_layout_already_good;
    Alcotest.test_case "copy cost blocks tiny benefit" `Quick
      test_copy_cost_blocks_tiny_benefit;
    Alcotest.test_case "copy cost scaling" `Quick test_copy_cost_positive_and_scales;
    Alcotest.test_case "row store kept for point lookups" `Quick
      test_mixed_workload_keeps_useful_row_store;
  ]
