(* Tests for the cost model: pattern algebra, miss equations, Cardenas,
   prefetch-aware cost function, plan emission, and model-vs-simulator
   agreement on trends. *)

module V = Storage.Value
module Pattern = Costmodel.Pattern
module Miss = Costmodel.Miss_model
module Cf = Costmodel.Cost_function
module Emit = Costmodel.Emit
module Model = Costmodel.Model

let params = Memsim.Params.nehalem

let test_pattern_constructors_flatten () =
  let a = Pattern.s_trav ~n:10 ~w:8 () in
  let p = Pattern.seq [ Pattern.seq [ a; a ]; Pattern.empty; a ] in
  match p with
  | Pattern.Seq ts -> Alcotest.(check int) "flattened" 3 (List.length ts)
  | _ -> Alcotest.fail "expected Seq"

let test_pattern_single_child_collapses () =
  let a = Pattern.s_trav ~n:10 ~w:8 () in
  (match Pattern.seq [ a ] with
  | Pattern.Atom _ -> ()
  | _ -> Alcotest.fail "singleton seq should collapse");
  match Pattern.par [ Pattern.empty; a ] with
  | Pattern.Atom _ -> ()
  | _ -> Alcotest.fail "singleton par should collapse"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_pattern_pp () =
  let p =
    Pattern.par
      [ Pattern.s_trav ~n:100 ~w:4 (); Pattern.s_trav_cr ~n:100 ~w:16 ~s:0.01 () ]
  in
  let s = Pattern.to_string p in
  Alcotest.(check bool) "mentions s_trav" true (contains_substring s "s_trav");
  Alcotest.(check bool) "mentions s_trav_cr" true (contains_substring s "s_trav_cr")

let test_cardenas_properties () =
  Alcotest.(check (float 1e-6)) "no draws" 0.0 (Miss.cardenas ~r:0.0 ~n:100.0);
  Alcotest.(check (float 1e-2)) "one draw" 1.0 (Miss.cardenas ~r:1.0 ~n:100.0);
  let many = Miss.cardenas ~r:10_000.0 ~n:100.0 in
  Alcotest.(check bool) "approaches n" true (many > 99.9 && many <= 100.0);
  let half = Miss.cardenas ~r:100.0 ~n:100.0 in
  Alcotest.(check bool) "between" true (half > 50.0 && half < 100.0)

let qcheck_cardenas_bounds =
  QCheck.Test.make ~count:500 ~name:"cardenas within [0, min(r,n)]"
    QCheck.(pair (float_bound_exclusive 10000.0) (float_bound_exclusive 10000.0))
    (fun (r, n) ->
      let r = r +. 1.0 and n = n +. 1.0 in
      let v = Miss.cardenas ~r ~n in
      v >= 0.0 && v <= Float.min r n +. 1e-6)

let test_probability_equations () =
  Alcotest.(check (float 1e-9)) "s=0 never accessed" 0.0
    (Miss.p_access ~s:0.0 ~per_line:8);
  Alcotest.(check (float 1e-9)) "s=1 always" 1.0 (Miss.p_access ~s:1.0 ~per_line:8);
  let p = Miss.p_access ~s:0.1 ~per_line:8 in
  Alcotest.(check (float 1e-9)) "eq1" (1.0 -. (0.9 ** 8.0)) p;
  Alcotest.(check (float 1e-9)) "eq2 = p^2" (p *. p) (Miss.p_seq ~s:0.1 ~per_line:8);
  Alcotest.(check (float 1e-9)) "eq3 = p - p^2" (p -. (p *. p))
    (Miss.p_rand ~s:0.1 ~per_line:8)

let qcheck_probabilities_valid =
  QCheck.Test.make ~count:500 ~name:"p_seq + p_rand = p_access, all in [0,1]"
    QCheck.(pair (float_bound_inclusive 1.0) (int_range 1 64))
    (fun (s, per_line) ->
      let p = Miss.p_access ~s ~per_line in
      let ps = Miss.p_seq ~s ~per_line in
      let pr = Miss.p_rand ~s ~per_line in
      p >= 0.0 && p <= 1.0 && ps >= 0.0 && pr >= 0.0
      && Float.abs (ps +. pr -. p) < 1e-9)

let llc m = m.Miss.levels.(2)

let test_s_trav_misses () =
  let m = Miss.atom_misses params (Pattern.S_trav { n = 1000; w = 64; u = 64 }) in
  Alcotest.(check (float 0.5)) "one miss per line" 1000.0 (llc m).Miss.total;
  Alcotest.(check (float 1e-9)) "all sequential" 0.0 (llc m).Miss.rand

let test_s_trav_wide_item_narrow_use () =
  (* 1000 items of 256 bytes, using 8: only one line per item touched *)
  let m = Miss.atom_misses params (Pattern.S_trav { n = 1000; w = 256; u = 8 }) in
  Alcotest.(check (float 0.5)) "one line per item" 1000.0 (llc m).Miss.total

let test_s_trav_cr_monotone_in_s () =
  let total s =
    (llc (Miss.atom_misses params (Pattern.S_trav_cr { n = 10_000; w = 16; u = 16; s })))
      .Miss.total
  in
  Alcotest.(check bool) "monotone" true
    (total 0.01 < total 0.1 && total 0.1 < total 0.5 && total 0.5 <= total 1.0)

let test_s_trav_cr_extremes () =
  let m s =
    llc (Miss.atom_misses params (Pattern.S_trav_cr { n = 6400; w = 64; u = 64; s }))
  in
  Alcotest.(check (float 1e-6)) "s=0: no misses" 0.0 (m 0.0).Miss.total;
  Alcotest.(check (float 0.5)) "s=1: all lines, all sequential" 6400.0
    (m 1.0).Miss.seq;
  Alcotest.(check (float 1e-6)) "s=1: no random misses" 0.0 (m 1.0).Miss.rand

let test_rr_acc_fits_cache () =
  (* small region, many accesses: only compulsory misses *)
  let m =
    Miss.atom_misses params (Pattern.Rr_acc { n = 100; w = 64; u = 64; r = 100_000 })
  in
  Alcotest.(check bool) "bounded by region lines" true ((llc m).Miss.total <= 100.0)

let test_rr_acc_exceeds_cache () =
  (* region 64 MB >> LLC: most accesses miss *)
  let m =
    Miss.atom_misses params
      (Pattern.Rr_acc { n = 1_000_000; w = 64; u = 64; r = 100_000 })
  in
  Alcotest.(check bool) "most accesses miss" true ((llc m).Miss.total > 80_000.0)

let test_capacity_share_increases_misses () =
  let atom = Pattern.Rr_acc { n = 100_000; w = 64; u = 64; r = 200_000 } in
  let full = (llc (Miss.atom_misses ~capacity_share:1.0 params atom)).Miss.total in
  let shared = (llc (Miss.atom_misses ~capacity_share:0.25 params atom)).Miss.total in
  Alcotest.(check bool) "less cache, more misses" true (shared >= full)

let test_cost_function_prefetch_hiding () =
  (* purely sequential pattern: prefetch-aware must not exceed additive *)
  let m = Miss.atom_misses params (Pattern.S_trav { n = 100_000; w = 64; u = 64 }) in
  let aware = Cf.cost_of_misses params m in
  let additive = Cf.cost_of_misses_additive params m in
  Alcotest.(check bool) "aware <= additive" true (aware <= additive)

let test_cost_function_random_equal () =
  (* purely random pattern: the two functions agree *)
  let m =
    Miss.atom_misses params
      (Pattern.Rr_acc { n = 1_000_000; w = 64; u = 64; r = 50_000 })
  in
  Alcotest.(check (float 1.0)) "same on random misses"
    (Cf.cost_of_misses_additive params m)
    (Cf.cost_of_misses params m)

let test_cost_seq_par () =
  let a = Pattern.s_trav ~n:1000 ~w:64 () in
  let single = Cf.cost params a in
  let seq = Cf.cost params (Pattern.seq [ a; a ]) in
  Alcotest.(check (float 0.01)) "seq adds" (2.0 *. single) seq;
  let par = Cf.cost params (Pattern.par [ a; a ]) in
  Alcotest.(check bool) "par at least as expensive as seq" true
    (par >= seq -. 0.01)

let test_emit_example_query_shape () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:10_000 () in
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let plan = Workloads.Microbench.plan cat ~sel:0.01 in
  let pattern, descs = Emit.emit cat plan in
  let atoms = Pattern.atoms pattern in
  let has_s_trav =
    List.exists (function Pattern.S_trav { w = 8; _ } -> true | _ -> false) atoms
  in
  let has_cr =
    List.exists
      (function
        | Pattern.S_trav_cr { w = 32; s; _ } -> Float.abs (s -. 0.01) < 1e-9
        | _ -> false)
      atoms
  in
  Alcotest.(check bool) "s_trav over A partition" true has_s_trav;
  Alcotest.(check bool) "s_trav_cr over B..E partition" true has_cr;
  Alcotest.(check int) "two descriptors" 2 (List.length descs)

let test_emit_layout_sensitivity () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  let plan = Workloads.Microbench.plan cat ~sel:0.001 in
  let schema = Workloads.Microbench.schema in
  let cost layout = Model.query_cost ~layouts:[ ("R", layout) ] cat plan in
  let row = cost (Storage.Layout.row schema) in
  let pdsm = cost Workloads.Microbench.pdsm_layout in
  Alcotest.(check bool) "PDSM cheaper than row at low selectivity" true
    (pdsm < row)

let test_emit_index_scan_pattern () =
  let cat = Helpers.small_catalog ~n:1000 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat "select * from t where id = $1")
  in
  let pattern, descs = Emit.emit cat plan in
  let has_rr =
    List.exists
      (function Pattern.Rr_acc _ -> true | _ -> false)
      (Pattern.atoms pattern)
  in
  Alcotest.(check bool) "index access is rr_acc" true has_rr;
  Alcotest.(check bool) "rand descriptor present" true
    (List.exists (fun d -> d.Emit.kind = Emit.Rand) descs)

let test_emit_insert_pattern () =
  let cat = Helpers.small_catalog ~n:100 () in
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat "insert into t values (1,2,3,'x',0.5)")
  in
  let pattern, descs = Emit.emit cat plan in
  Alcotest.(check bool) "insert emits point accesses" true
    (List.for_all
       (function Pattern.Rr_acc { r = 1; _ } -> true | _ -> false)
       (Pattern.atoms pattern));
  Alcotest.(check int) "one descriptor over all attrs" 1 (List.length descs)

(* Under short-circuit evaluation the first conjunct reads every row, so a
   column that a later conjunct reads again is still a full traversal. *)
let test_emit_repeated_column_is_seq () =
  let cat = Helpers.small_catalog ~n:1000 () in
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat
         "select id from t where amount >= $1 and amount <= $2")
  in
  let _, descs = Emit.emit cat plan in
  let amount = Storage.Schema.attr_index Helpers.small_schema "amount" in
  match List.filter (fun d -> List.mem amount d.Emit.attrs) descs with
  | [ d ] ->
      Alcotest.(check bool) "amount is a full traversal" true
        (d.Emit.kind = Emit.Seq)
  | ds -> Alcotest.failf "%d descriptors read amount" (List.length ds)

let test_model_tracks_simulator_trend () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:50_000 () in
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let pairs =
    List.map
      (fun sel ->
        let plan = Workloads.Microbench.plan cat ~sel in
        let est = Model.query_cost cat plan in
        let _, st =
          Engines.Engine.run_measured Engines.Engine.Jit cat plan
            ~params:(Workloads.Microbench.params ~sel)
        in
        (est, float_of_int (Memsim.Stats.total_cycles st)))
      [ 0.001; 0.01; 0.1; 0.5; 1.0 ]
  in
  (* the model must be within 3x of the simulator and strictly increasing
     along with it *)
  List.iter
    (fun (est, act) ->
      Alcotest.(check bool)
        (Printf.sprintf "within 3x (%.0f vs %.0f)" est act)
        true
        (est > act /. 3.0 && est < act *. 3.0))
    pairs;
  let ests = List.map fst pairs and acts = List.map snd pairs in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "model increasing" true (increasing ests);
  Alcotest.(check bool) "simulator increasing" true (increasing acts)

let test_workload_cost_weighted () =
  let cat = Helpers.small_catalog ~n:500 () in
  let plan =
    Relalg.Planner.plan cat (Relalg.Sql.parse cat "select sum(amount) s from t")
  in
  let one = Model.workload_cost cat [ (plan, 1.0) ] in
  let ten = Model.workload_cost cat [ (plan, 10.0) ] in
  Alcotest.(check (float 0.01)) "frequency weights" (10.0 *. one) ten

let test_explain_mentions_pattern () =
  let cat = Helpers.small_catalog ~n:100 () in
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat "select id from t where grp = $1")
  in
  let s = Obs_explain.render cat plan in
  Alcotest.(check bool) "explain has pattern and cycles" true
    (String.length s > 40)

let suite =
  [
    Alcotest.test_case "pattern flattening" `Quick test_pattern_constructors_flatten;
    Alcotest.test_case "pattern collapse" `Quick test_pattern_single_child_collapses;
    Alcotest.test_case "pattern printing" `Quick test_pattern_pp;
    Alcotest.test_case "cardenas properties" `Quick test_cardenas_properties;
    QCheck_alcotest.to_alcotest qcheck_cardenas_bounds;
    Alcotest.test_case "probability equations" `Quick test_probability_equations;
    QCheck_alcotest.to_alcotest qcheck_probabilities_valid;
    Alcotest.test_case "s_trav misses" `Quick test_s_trav_misses;
    Alcotest.test_case "s_trav wide/narrow" `Quick test_s_trav_wide_item_narrow_use;
    Alcotest.test_case "s_trav_cr monotone" `Quick test_s_trav_cr_monotone_in_s;
    Alcotest.test_case "s_trav_cr extremes" `Quick test_s_trav_cr_extremes;
    Alcotest.test_case "rr_acc cached region" `Quick test_rr_acc_fits_cache;
    Alcotest.test_case "rr_acc large region" `Quick test_rr_acc_exceeds_cache;
    Alcotest.test_case "capacity sharing" `Quick test_capacity_share_increases_misses;
    Alcotest.test_case "eq5 prefetch hiding" `Quick test_cost_function_prefetch_hiding;
    Alcotest.test_case "cost functions agree on random" `Quick
      test_cost_function_random_equal;
    Alcotest.test_case "seq/par composition" `Quick test_cost_seq_par;
    Alcotest.test_case "emit example query" `Quick test_emit_example_query_shape;
    Alcotest.test_case "emit layout sensitivity" `Quick test_emit_layout_sensitivity;
    Alcotest.test_case "emit index scan" `Quick test_emit_index_scan_pattern;
    Alcotest.test_case "emit insert" `Quick test_emit_insert_pattern;
    Alcotest.test_case "emit conjuncts on one column" `Quick
      test_emit_repeated_column_is_seq;
    Alcotest.test_case "model tracks simulator" `Quick
      test_model_tracks_simulator_trend;
    Alcotest.test_case "workload weighting" `Quick test_workload_cost_weighted;
    Alcotest.test_case "explain output" `Quick test_explain_mentions_pattern;
  ]
