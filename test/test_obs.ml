(* The observability layer: span accounting invariants, cost-model
   calibration against the simulator, metrics export round-trips, and the
   normalized bench trajectory schema. *)

module Span = Obs.Span
module Profile = Obs.Profile
module Metrics = Obs.Metrics
module Json = Obs.Json
module Traj = Trajectory
module Stats = Memsim.Stats
module Engine = Engines.Engine
module Micro = Workloads.Microbench

let stats_fields (s : Stats.t) =
  [
    ("accesses", s.Stats.accesses);
    ("reads", s.Stats.reads);
    ("writes", s.Stats.writes);
    ("l1_misses", s.Stats.l1_misses);
    ("l2_misses", s.Stats.l2_misses);
    ("llc_accesses", s.Stats.llc_accesses);
    ("llc_seq_misses", s.Stats.llc_seq_misses);
    ("llc_rand_misses", s.Stats.llc_rand_misses);
    ("tlb_misses", s.Stats.tlb_misses);
    ("prefetches", s.Stats.prefetches);
    ("mem_cycles", s.Stats.mem_cycles);
    ("cpu_cycles", s.Stats.cpu_cycles);
  ]

let check_stats_equal what a b =
  List.iter2
    (fun (fa, va) (_, vb) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s" what fa) va vb)
    (stats_fields a) (stats_fields b)

(* ------------------------------------------------------------------ *)
(* Span accounting                                                    *)
(* ------------------------------------------------------------------ *)

let engines =
  [ Engine.Volcano; Engine.Bulk; Engine.Hyrise; Engine.Vectorized; Engine.Jit ]

(* The self-time invariant: the flat span registry attributes every counter
   delta to exactly one node, so the node sum must equal the whole-query
   measured counters — per field, for every engine. *)
let test_span_sum_equals_totals () =
  List.iter
    (fun engine ->
      let hier = Memsim.Hierarchy.create () in
      let cat = Micro.build ~hier ~n:5_000 () in
      let plan = Micro.plan cat ~sel:0.1 in
      let params = Micro.params ~sel:0.1 in
      let (_, st), profile =
        Profile.profiled ~hier (fun () ->
            Engine.run_measured engine cat plan ~params)
      in
      check_stats_equal
        (Printf.sprintf "%s span sum" (Engine.name engine))
        st (Span.total profile))
    engines

(* Profiling must never perturb a measurement: the counters of a profiled
   run are identical to an unprofiled one. *)
let test_profiling_neutral () =
  List.iter
    (fun engine ->
      let run profiled =
        let hier = Memsim.Hierarchy.create () in
        let cat = Micro.build ~hier ~n:5_000 () in
        let plan = Micro.plan cat ~sel:0.1 in
        let params = Micro.params ~sel:0.1 in
        if profiled then
          let (_, st), _ =
            Profile.profiled ~hier (fun () ->
                Engine.run_measured engine cat plan ~params)
          in
          st
        else snd (Engine.run_measured engine cat plan ~params)
      in
      check_stats_equal
        (Printf.sprintf "%s profiled vs plain" (Engine.name engine))
        (run false) (run true))
    engines

(* Same invariant under morsel-parallel execution: per-operator inclusive
   cost from the root covers the domain sub-profiles, and the parent total
   plus all domain totals accounts for every counted access. *)
let test_span_sum_parallel () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Micro.build ~hier ~n:5_000 () in
  let plan = Micro.plan cat ~sel:0.1 in
  let params = Micro.params ~sel:0.1 in
  let (_, st), profile =
    Profile.profiled ~hier (fun () ->
        Engine.run_measured ~domains:2 Engine.Jit cat plan ~params)
  in
  Alcotest.(check bool)
    "has domain sub-profiles" true
    (List.length profile.Span.domains > 0);
  let inclusive = Span.inclusive profile Span.root_id in
  (* run_measured merges per-domain counters with max-cycle (critical path)
     semantics, so cycles differ; access counts are additive and must
     match. *)
  Alcotest.(check int)
    "accesses attributed" st.Stats.accesses inclusive.Stats.accesses;
  Alcotest.(check int)
    "reads attributed" st.Stats.reads inclusive.Stats.reads

let test_span_ids () =
  Alcotest.(check string) "child of root" "0" (Span.child Span.root_id 0);
  Alcotest.(check string) "nested child" "0.1.2" (Span.child "0.1" 2);
  Alcotest.(check string) "phase id" "0.1#build" (Span.phase_id "0.1" "build");
  Alcotest.(check bool) "under self" true (Span.under "0.1" "0.1");
  Alcotest.(check bool) "under child" true (Span.under "0.1" "0.1.0");
  Alcotest.(check bool) "under phase" true (Span.under "0.1" "0.1#build");
  Alcotest.(check bool) "not under sibling" false (Span.under "0.1" "0.10");
  Alcotest.(check (option string)) "parent of child" (Some "0.1")
    (Span.parent_id "0.1.2");
  Alcotest.(check (option string)) "parent of phase" (Some "0.1")
    (Span.parent_id "0.1#build");
  Alcotest.(check (option string)) "root has no parent" None
    (Span.parent_id Span.root_id)

let qcheck_span_parent_child =
  QCheck.Test.make ~count:200 ~name:"parent_id inverts child/phase_id"
    QCheck.(pair (small_list (int_bound 9)) (int_bound 9))
    (fun (segs, i) ->
      let path =
        List.fold_left (fun p s -> Span.child p s) Span.root_id segs
      in
      Span.parent_id (Span.child path i) = Some path
      && Span.parent_id (Span.phase_id path "x") = Some path
      && Span.under path (Span.child path i))

(* ------------------------------------------------------------------ *)
(* Cost-model calibration (EXPLAIN ANALYZE's error column)             *)
(* ------------------------------------------------------------------ *)

(* The paper's Table II microbench query across the three storage layouts.
   The calibration bound documented in DESIGN.md §5e: the analytical model
   stays within a factor of 3 of the simulator on these patterns (same
   bound test_costmodel establishes for PDSM trend-tracking; here it is
   checked per layout, which is what the EXPLAIN ANALYZE error column
   reports). *)
let test_calibration_bound () =
  let layouts =
    [
      ("nsm", Storage.Layout.row Micro.schema);
      ("dsm", Storage.Layout.column Micro.schema);
      ("pdsm", Micro.pdsm_layout);
    ]
  in
  List.iter
    (fun (lname, layout) ->
      let hier = Memsim.Hierarchy.create () in
      let cat = Micro.build ~hier ~n:50_000 () in
      Storage.Catalog.set_layout cat "R" layout;
      List.iter
        (fun sel ->
          let plan = Micro.plan cat ~sel in
          let predicted = Costmodel.Model.query_cost cat plan in
          let _, st =
            Engine.run_measured Engine.Jit cat plan
              ~params:(Micro.params ~sel)
          in
          let measured = float_of_int (Stats.total_cycles st) in
          let ratio = predicted /. measured in
          Alcotest.(check bool)
            (Printf.sprintf "%s sel %.2f within 3x (%.0f vs %.0f)" lname sel
               predicted measured)
            true
            (ratio > 1. /. 3. && ratio < 3.))
        [ 0.01; 0.1; 0.5 ])
    layouts

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  Metrics.reset_values ();
  let c = Metrics.counter "test_obs_ops_total" ~help:"ops" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  let c' = Metrics.counter "test_obs_ops_total" in
  Metrics.incr c';
  Alcotest.(check int) "registration idempotent" 43 (Metrics.counter_value c);
  let g = Metrics.gauge "test_obs_depth" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.) ) "gauge" 2.5 (Metrics.gauge_value g);
  Alcotest.check_raises "wrong kind raises"
    (Invalid_argument
       "Obs.Metrics: test_obs_ops_total already registered as a counter")
    (fun () -> ignore (Metrics.gauge "test_obs_ops_total"));
  let text = Metrics.to_prometheus () in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus has counter" true
    (contains text "test_obs_ops_total 43");
  Alcotest.(check bool) "prometheus has gauge" true
    (contains text "test_obs_depth 2.5")

let test_metrics_histogram () =
  Metrics.reset_values ();
  let h =
    Metrics.histogram "test_obs_latency" ~buckets:[ 0.1; 1.0; 10.0 ]
  in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  let j = Metrics.to_json () in
  let metrics =
    match Json.member "metrics" j with Some (Json.Arr l) -> l | _ -> []
  in
  let entry =
    List.find
      (fun m -> Json.member "name" m = Some (Json.Str "test_obs_latency"))
      metrics
  in
  Alcotest.(check (option (float 0.)))
    "count" (Some 5.)
    (Option.bind (Json.member "count" entry) Json.to_num);
  Alcotest.(check (option (float 1e-9)))
    "sum" (Some 56.05)
    (Option.bind (Json.member "sum" entry) Json.to_num)

let qcheck_metrics_json_roundtrip =
  QCheck.Test.make ~count:50 ~name:"metrics JSON export round-trips"
    QCheck.(
      triple (int_bound 1_000_000)
        (float_bound_inclusive 1e9)
        (small_list (float_bound_inclusive 20.)))
    (fun (c, g, obs) ->
      Metrics.reset_values ();
      let cnt = Metrics.counter "test_obs_rt_total" in
      let gge = Metrics.gauge "test_obs_rt_gauge" in
      let hist = Metrics.histogram "test_obs_rt_hist" in
      Metrics.add cnt c;
      Metrics.set gge g;
      List.iter (Metrics.observe hist) obs;
      let j = Metrics.to_json () in
      Json.equal j (Json.parse (Json.to_string j))
      && Json.equal j (Json.parse (Json.to_string ~indent:2 j)))

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_parse () =
  let j = Json.parse {| {"a": [1, 2.5, true, null, "xA"], "b": {}} |} in
  Alcotest.(check bool) "round-trip" true
    (Json.equal j (Json.parse (Json.to_string j)));
  (match Json.member "a" j with
  | Some (Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Bool true; Json.Null;
                     Json.Str "xA" ]) -> ()
  | _ -> Alcotest.fail "array shape");
  Alcotest.(check bool) "object order-insensitive" true
    (Json.equal (Json.parse {| {"a":1,"b":2} |}) (Json.parse {| {"b":2,"a":1} |}))

(* ------------------------------------------------------------------ *)
(* Trajectory                                                         *)
(* ------------------------------------------------------------------ *)

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_trajectory_roundtrip () =
  let run =
    Traj.make_run ~commit:"abc123"
      [
        Traj.point ~bench:"b" ~metric:"m1" ~unit_:"s" 1.25;
        Traj.point ~bench:"b" ~metric:"m2" 3.0;
      ]
  in
  let file = tmpfile "test_obs_traj.json" in
  Traj.save file run;
  let back = Traj.load file in
  Sys.remove file;
  Alcotest.(check int) "schema" Traj.schema_version back.Traj.schema_version;
  Alcotest.(check string) "commit" "abc123" back.Traj.commit;
  Alcotest.(check int) "points" 2 (List.length back.Traj.points);
  Alcotest.(check bool) "points preserved" true (back.Traj.points = run.Traj.points)

let test_trajectory_normalize_legacy () =
  let legacy =
    Json.parse
      {| { "benchmark": "old", "rows": 50000,
           "runs": [ { "domains": 1, "seconds": 0.5 },
                     { "domains": 2, "seconds": 0.3 } ],
           "ok": true } |}
  in
  let points = Traj.normalize_legacy ~bench:"para" legacy in
  let find m =
    List.find_opt (fun p -> p.Traj.metric = m) points
    |> Option.map (fun p -> p.Traj.value)
  in
  Alcotest.(check (option (float 0.))) "scalar" (Some 50000.) (find "rows");
  Alcotest.(check (option (float 0.)))
    "nested array" (Some 0.3) (find "runs.1.seconds");
  Alcotest.(check (option (float 0.))) "bool as 0/1" (Some 1.) (find "ok");
  Alcotest.(check bool) "strings skipped" true (find "benchmark" = None);
  Alcotest.(check bool) "all labelled" true
    (List.for_all (fun p -> p.Traj.bench = "para") points)

let test_trajectory_diff_and_gates () =
  let base =
    Traj.make_run
      [
        Traj.point ~bench:"b" ~metric:"cycles" 100.;
        Traj.point ~bench:"b" ~metric:"gone" 1.;
      ]
  in
  let cur =
    Traj.make_run
      [
        Traj.point ~bench:"b" ~metric:"cycles" 120.;
        Traj.point ~bench:"b" ~metric:"new" 5.;
      ]
  in
  let deltas = Traj.diff ~baseline:base cur in
  Alcotest.(check int) "three keys" 3 (List.length deltas);
  let d = List.find (fun d -> d.Traj.key = "b/cycles") deltas in
  Alcotest.(check (option (float 1e-9))) "ratio" (Some 1.2) d.Traj.ratio;
  let gates =
    Traj.gates_of_json
      (Json.parse
         {| { "gates": [ { "pattern": "b/cycles", "max_regress": 0.1 },
                         { "pattern": "b/new", "direction": "down_is_bad",
                           "min_value": 10 } ] } |})
  in
  let violations = Traj.check ~gates ~baseline:base cur in
  Alcotest.(check int) "both gates fire" 2 (List.length violations);
  let ok = Traj.check ~gates ~baseline:base base in
  Alcotest.(check int) "baseline vs itself passes" 0 (List.length ok)

let test_glob_match () =
  List.iter
    (fun (pat, s, want) ->
      Alcotest.(check bool) (pat ^ " ~ " ^ s) want (Traj.glob_match ~pattern:pat s))
    [
      ("a/b", "a/b", true);
      ("a/*", "a/b.c", true);
      ("*.seconds", "para/domains.1.seconds", true);
      ("engine.*.fast", "engine.jit.fast", true);
      ("engine.*.fast", "engine.jit.slow", false);
      ("*", "anything", true);
      ("a*c*e", "abcde", true);
      ("a*c*e", "abde", false);
    ]

(* Gauges and histograms are set at every MVCC commit: with a constant
   float, [set] and [observe] allocate nothing. *)
let test_metrics_allocate_nothing () =
  let g = Metrics.gauge "test_alloc_gauge" in
  let h = Metrics.histogram "test_alloc_seconds" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Metrics.set g 2.5
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    Metrics.observe h 2.5e-3
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words per set" 0. ((w1 -. w0) /. 1000.);
  Alcotest.(check (float 0.)) "minor words per observe" 0.
    ((w2 -. w1) /. 1000.);
  Alcotest.(check (float 0.)) "the gauge holds the value" 2.5
    (Metrics.gauge_value g);
  Alcotest.(check int) "every observation counted" 1_000
    (Metrics.histogram_count h)

let suite =
  [
    Alcotest.test_case "span ids" `Quick test_span_ids;
    Alcotest.test_case "span sum equals whole-query totals" `Quick
      test_span_sum_equals_totals;
    Alcotest.test_case "profiling is measurement-neutral" `Quick
      test_profiling_neutral;
    Alcotest.test_case "span sum under parallel execution" `Quick
      test_span_sum_parallel;
    Alcotest.test_case "calibration within documented bound" `Slow
      test_calibration_bound;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
    Alcotest.test_case "metrics histogram export" `Quick
      test_metrics_histogram;
    Alcotest.test_case "json parse/round-trip" `Quick test_json_parse;
    Alcotest.test_case "trajectory save/load" `Quick test_trajectory_roundtrip;
    Alcotest.test_case "trajectory legacy normalization" `Quick
      test_trajectory_normalize_legacy;
    Alcotest.test_case "trajectory diff and gates" `Quick
      test_trajectory_diff_and_gates;
    Alcotest.test_case "glob match" `Quick test_glob_match;
    QCheck_alcotest.to_alcotest qcheck_span_parent_child;
    QCheck_alcotest.to_alcotest qcheck_metrics_json_roundtrip;
    Alcotest.test_case "obs: set and observe allocate nothing" `Quick
      test_metrics_allocate_nothing;
  ]
