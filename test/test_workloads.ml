(* Tests for the benchmark workloads: schemas load, generators respect the
   documented properties, queries run and return plausible results. *)

module V = Storage.Value
module Engine = Engines.Engine

let run_query cat (q : Workloads.Workload.query) =
  Engine.run Engine.Jit cat
    (q.Workloads.Workload.make_plan ~use_indexes:false)
    ~params:q.Workloads.Workload.params

let test_microbench_selectivity () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:20_000 () in
  let r =
    Engine.run Engine.Jit cat
      (Workloads.Microbench.plan cat ~sel:0.1)
      ~params:(Workloads.Microbench.params ~sel:0.1)
  in
  Alcotest.(check int) "single aggregate row" 1 (List.length r.Engines.Runtime.rows);
  (* verify the actual match fraction is near 10% *)
  let rel = Storage.Catalog.find cat "R" in
  let threshold = Workloads.Microbench.domain / 10 in
  let matches = ref 0 in
  for tid = 0 to 19_999 do
    if V.to_int (Storage.Relation.get rel tid 0) < threshold then incr matches
  done;
  Alcotest.(check bool) "selectivity close to 10%" true
    (abs (!matches - 2000) < 300)

let test_microbench_all_engines_agree () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:5_000 () in
  List.iter
    (fun layout ->
      Storage.Catalog.set_layout cat "R" layout;
      let plan = Workloads.Microbench.plan cat ~sel:0.05 in
      let params = Workloads.Microbench.params ~sel:0.05 in
      let results =
        List.map
          (fun e -> (Engine.run e cat plan ~params).Engines.Runtime.rows)
          Engine.all
      in
      match results with
      | ref :: rest ->
          List.iter (fun r -> Helpers.check_rows "sums agree" ref r) rest
      | [] -> ())
    [
      Storage.Layout.row Workloads.Microbench.schema;
      Workloads.Microbench.pdsm_layout;
    ]

let test_sap_sd_builds () =
  let hier = Memsim.Hierarchy.create () in
  let sd = Workloads.Sap_sd.build ~hier ~scale:0.05 () in
  let cat = sd.Workloads.Sap_sd.cat in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s populated" t)
        true
        (Storage.Relation.nrows (Storage.Catalog.find cat t) > 0))
    Workloads.Sap_sd.tables;
  Alcotest.(check int) "12 queries" 12 (List.length sd.Workloads.Sap_sd.queries)

let test_sap_sd_queries_run () =
  let hier = Memsim.Hierarchy.create () in
  let sd = Workloads.Sap_sd.build ~hier ~scale:0.05 () in
  let cat = sd.Workloads.Sap_sd.cat in
  List.iter
    (fun (q : Workloads.Workload.query) ->
      let r = run_query cat q in
      ignore r.Engines.Runtime.rows)
    sd.Workloads.Sap_sd.queries

let test_sap_sd_q1_matches () =
  let hier = Memsim.Hierarchy.create () in
  let sd = Workloads.Sap_sd.build ~hier ~scale:0.2 () in
  let cat = sd.Workloads.Sap_sd.cat in
  let q1 = Workloads.Sap_sd.query sd "Q1" in
  let r = run_query cat q1 in
  (* the generator draws NAME1/NAME2 from a 100-name pool, so the pattern
     parameters must match something *)
  Alcotest.(check bool) "Q1 finds rows" true
    (List.length r.Engines.Runtime.rows > 0)

let test_sap_sd_q6_inserts () =
  let hier = Memsim.Hierarchy.create () in
  let sd = Workloads.Sap_sd.build ~hier ~scale:0.05 () in
  let cat = sd.Workloads.Sap_sd.cat in
  let before = Storage.Relation.nrows (Storage.Catalog.find cat "VBAP") in
  ignore (run_query cat (Workloads.Sap_sd.query sd "Q6"));
  Alcotest.(check int) "one row inserted" (before + 1)
    (Storage.Relation.nrows (Storage.Catalog.find cat "VBAP"))

let test_sap_sd_indexes () =
  let hier = Memsim.Hierarchy.create () in
  let sd = Workloads.Sap_sd.build ~hier ~scale:0.05 () in
  Workloads.Sap_sd.create_indexes sd;
  let cat = sd.Workloads.Sap_sd.cat in
  let q7 = Workloads.Sap_sd.query sd "Q7" in
  let indexed =
    Engine.run Engine.Jit cat
      (q7.Workloads.Workload.make_plan ~use_indexes:true)
      ~params:q7.Workloads.Workload.params
  in
  let scanned =
    Engine.run Engine.Jit cat
      (q7.Workloads.Workload.make_plan ~use_indexes:false)
      ~params:q7.Workloads.Workload.params
  in
  Helpers.check_rows "index and scan agree"
    (Helpers.sorted_rows scanned) (Helpers.sorted_rows indexed)

let test_ch_builds_and_runs () =
  let hier = Memsim.Hierarchy.create () in
  let ch = Workloads.Ch.build ~hier ~scale:0.05 () in
  let cat = ch.Workloads.Ch.cat in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "%s populated" t)
        true
        (Storage.Relation.nrows (Storage.Catalog.find cat t) > 0))
    Workloads.Ch.tables;
  List.iter
    (fun (q : Workloads.Workload.query) ->
      let r = run_query cat q in
      if not q.Workloads.Workload.modifies then
        Alcotest.(check bool)
          (Printf.sprintf "%s returns rows" q.Workloads.Workload.name)
          true
          (List.length r.Engines.Runtime.rows > 0))
    ch.Workloads.Ch.queries

let test_ch1_aggregates_consistent () =
  let hier = Memsim.Hierarchy.create () in
  let ch = Workloads.Ch.build ~hier ~scale:0.05 () in
  let cat = ch.Workloads.Ch.cat in
  let r = run_query cat (Workloads.Ch.query ch "CH1") in
  (* count over all groups equals matching order lines *)
  let counted =
    List.fold_left
      (fun acc row -> acc + V.to_int row.(5))
      0 r.Engines.Runtime.rows
  in
  Alcotest.(check bool) "grouped counts positive and bounded" true
    (counted > 0
    && counted
       <= Storage.Relation.nrows (Storage.Catalog.find cat "order_line"))

let test_cnet_sparsity () =
  let hier = Memsim.Hierarchy.create () in
  let cn = Workloads.Cnet.build ~hier ~n_products:2000 ~n_extra:50 ~avg_filled:11 () in
  let rel = Storage.Catalog.find cn.Workloads.Cnet.cat "products" in
  let non_null = ref 0 in
  for tid = 0 to 499 do
    for a = 6 to 55 do
      if not (V.is_null (Storage.Relation.get rel tid a)) then incr non_null
    done
  done;
  let avg = float_of_int !non_null /. 500.0 in
  Alcotest.(check bool)
    (Printf.sprintf "avg filled extras near 11 (got %.1f)" avg)
    true
    (avg > 8.0 && avg < 14.0)

let test_cnet_queries_run () =
  let hier = Memsim.Hierarchy.create () in
  let cn = Workloads.Cnet.build ~hier ~n_products:20_000 ~n_extra:30 () in
  let cat = cn.Workloads.Cnet.cat in
  List.iter
    (fun (q : Workloads.Workload.query) ->
      let r = run_query cat q in
      Alcotest.(check bool)
        (Printf.sprintf "%s returns rows" q.Workloads.Workload.name)
        true
        (List.length r.Engines.Runtime.rows > 0))
    cn.Workloads.Cnet.queries

let test_cnet_c4_frequency () =
  let hier = Memsim.Hierarchy.create () in
  let cn = Workloads.Cnet.build ~hier ~n_products:100 ~n_extra:10 () in
  let c4 = Workloads.Cnet.query cn "C4" in
  Alcotest.(check (float 0.1)) "C4 frequency from Table V" 10_000.0
    c4.Workloads.Workload.freq

let test_determinism_across_builds () =
  let build () =
    let hier = Memsim.Hierarchy.create () in
    let sd = Workloads.Sap_sd.build ~hier ~scale:0.05 () in
    let cat = sd.Workloads.Sap_sd.cat in
    let rel = Storage.Catalog.find cat "ADRC" in
    List.init 20 (Storage.Relation.get_tuple rel)
  in
  Helpers.check_rows "generator deterministic" (build ()) (build ())

(* Every front end loads a demo database by name through
   [Workloads.build], with or without a memory hierarchy.  The scale rules
   are written out here, so that moving them changes what every front end
   loads and fails this test: micro has 200,000 x scale rows, cnet 20,000 x
   scale products, and sd and ch take the scale as theirs; CH's mix is its
   queries then its transactions. *)
let test_demo_databases () =
  let scale = 0.01 in
  let direct = function
    | "micro" ->
        ( Workloads.Microbench.build
            ~n:(int_of_float (200_000.0 *. scale))
            (),
          [] )
    | "sd" ->
        let sd = Workloads.Sap_sd.build ~scale () in
        (sd.Workloads.Sap_sd.cat, sd.Workloads.Sap_sd.queries)
    | "ch" ->
        let ch = Workloads.Ch.build ~scale () in
        ( ch.Workloads.Ch.cat,
          ch.Workloads.Ch.queries @ ch.Workloads.Ch.transactions )
    | "cnet" ->
        let cn =
          Workloads.Cnet.build ~n_products:(int_of_float (20_000.0 *. scale)) ()
        in
        (cn.Workloads.Cnet.cat, cn.Workloads.Cnet.queries)
    | other -> Alcotest.failf "no direct builder for %s" other
  in
  let digest = Durability.Snapshot.digest in
  let names = List.map (fun (q : Workloads.Workload.query) -> q.name) in
  Alcotest.(check (list string)) "demo databases"
    [ "micro"; "sd"; "ch"; "cnet" ] Workloads.names;
  List.iter
    (fun db ->
      let want_cat, want_queries = direct db in
      let cat, queries = Workloads.build db ~scale in
      let traced, _ =
        Workloads.build ~hier:(Memsim.Hierarchy.create ()) db ~scale
      in
      Alcotest.(check string) (db ^ " digest") (digest want_cat) (digest cat);
      Alcotest.(check string)
        (db ^ " digest with a hierarchy")
        (digest want_cat) (digest traced);
      Alcotest.(check (list string))
        (db ^ " queries") (names want_queries) (names queries))
    Workloads.names

let suite =
  [
    Alcotest.test_case "microbench selectivity" `Quick test_microbench_selectivity;
    Alcotest.test_case "microbench engines agree" `Quick
      test_microbench_all_engines_agree;
    Alcotest.test_case "sap-sd builds" `Quick test_sap_sd_builds;
    Alcotest.test_case "sap-sd queries run" `Quick test_sap_sd_queries_run;
    Alcotest.test_case "sap-sd q1 matches" `Quick test_sap_sd_q1_matches;
    Alcotest.test_case "sap-sd q6 inserts" `Quick test_sap_sd_q6_inserts;
    Alcotest.test_case "sap-sd index agreement" `Quick test_sap_sd_indexes;
    Alcotest.test_case "ch builds and runs" `Quick test_ch_builds_and_runs;
    Alcotest.test_case "ch1 aggregates" `Quick test_ch1_aggregates_consistent;
    Alcotest.test_case "cnet sparsity" `Quick test_cnet_sparsity;
    Alcotest.test_case "cnet queries run" `Quick test_cnet_queries_run;
    Alcotest.test_case "cnet frequencies" `Quick test_cnet_c4_frequency;
    Alcotest.test_case "generator determinism" `Quick
      test_determinism_across_builds;
    Alcotest.test_case "demo databases match the binaries' builders" `Quick
      test_demo_databases;
  ]
