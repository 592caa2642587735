(* The shape of the translation units the compiled engine builds: the
   data-centric structure of the paper's Fig. 2c, asserted on the real
   backend (these units are what cc compiles). *)

module V = Storage.Value

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  go 0 0

let plan_of cat sql = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql)

let info_of cat plan ~params =
  match Engines.C_emitter.emit_unit cat plan ~params with
  | Ok info -> info
  | Error reason -> Alcotest.failf "unexpected fallback: %s" reason

let unit_of cat plan ~params =
  (info_of cat plan ~params).Engines.C_emitter.source

let test_example_query_code () =
  let cat = Workloads.Microbench.build ~n:100 () in
  Storage.Catalog.set_layout cat "R" Workloads.Microbench.pdsm_layout;
  let params = Workloads.Microbench.params ~sel:0.01 in
  let code =
    unit_of cat (Workloads.Microbench.plan cat ~sel:0.01) ~params
  in
  (* scan loops are the only loops bounded by a table's row count *)
  Alcotest.(check int) "one fused loop" 1 (count code " < N");
  (* A is partition 0 on its own (8 bytes), B..E share partition 1 *)
  Alcotest.(check bool) "predicate reads A's partition" true
    (contains code "ld64(B0 + t");
  Alcotest.(check bool) "aggregates read the B..E partition at offsets" true
    (contains code "B1 + t" && contains code " * 32 + 8)");
  Alcotest.(check bool) "register accumulators" true (contains code "_st.");
  Alcotest.(check bool) "no aggregation table" false (contains code "_find(");
  Alcotest.(check bool) "parameter read at run time" true
    (contains code "ld64(params + 8)")

let test_group_by_code () =
  let cat = Helpers.small_catalog ~n:10 () in
  let code =
    unit_of cat (plan_of cat "select grp, count(*) c from t group by grp")
      ~params:[||]
  in
  Alcotest.(check int) "one scan loop" 1 (count code " < N");
  Alcotest.(check bool) "hash aggregation table" true (contains code "_find(&");
  Alcotest.(check bool) "groups emitted in insertion order" true
    (contains code ".ents[")

let test_join_code () =
  let cat = Helpers.join_catalog ~n_orders:10 ~n_customers:5 () in
  let code =
    unit_of cat
      (plan_of cat "select region, total from cust join ord on cid = ocid")
      ~params:[||]
  in
  Alcotest.(check int) "separate build and probe loops" 2 (count code " < N");
  Alcotest.(check bool) "build appends entries" true (contains code "_n++]");
  Alcotest.(check bool) "chains threaded after the build" true
    (contains code "_head[s] = e");
  Alcotest.(check bool) "probe walks its key's chain" true
    (contains code "_head[jslot(");
  Alcotest.(check bool) "varchar payload travels as a pointer" true
    (contains code "slen(");
  Alcotest.(check bool) "an int key is its own fold" true
    (contains code "_head[jslot(" && not (contains code "_w->h = "));
  Alcotest.(check bool) "int32 chains" true (contains code "int32_t *j")

(* Join, group and sort entries hold typed fields: no CH unit keeps a
   tagged [mv] in an entry. *)
let test_typed_entries () =
  let ch = Workloads.Ch.build ~scale:0.001 () in
  List.iter
    (fun (q : Workloads.Workload.query) ->
      let info =
        info_of ch.Workloads.Ch.cat
          (plan_of ch.Workloads.Ch.cat q.Workloads.Workload.sql)
          ~params:q.Workloads.Workload.params
      in
      Alcotest.(check int)
        (q.Workloads.Workload.name ^ " tagged entry fields")
        0 info.Engines.C_emitter.tagged_entry_fields)
    ch.Workloads.Ch.queries

(* A group-by over a join whose keys come from the join's build side is a
   groupjoin: CH2, CH3, CH5, CH8 and CH10 are, CH1, CH4 and CH6 have no
   join. *)
let test_groupjoins () =
  let ch = Workloads.Ch.build ~scale:0.001 () in
  List.iter
    (fun (q : Workloads.Workload.query) ->
      let info =
        info_of ch.Workloads.Ch.cat
          (plan_of ch.Workloads.Ch.cat q.Workloads.Workload.sql)
          ~params:q.Workloads.Workload.params
      in
      let expected =
        if List.mem q.Workloads.Workload.name [ "CH1"; "CH4"; "CH6" ] then 0
        else 1
      in
      Alcotest.(check int)
        (q.Workloads.Workload.name ^ " groupjoins")
        expected info.Engines.C_emitter.groupjoins)
    ch.Workloads.Ch.queries

let test_index_scan_code () =
  let cat = Helpers.small_catalog ~n:10 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let plan = plan_of cat "select * from t where id = $1" in
  match Engines.C_emitter.emit_unit cat plan ~params:[| V.VInt 3 |] with
  | Ok _ -> Alcotest.fail "index access compiled"
  | Error reason -> Alcotest.(check string) "fallback reason" "index access" reason

(* The unit depends on the parameters' types only: equal-typed vectors
   share a source (hence one object), a NULL parameter changes it. *)
let test_params_are_runtime () =
  let cat = Helpers.small_catalog ~n:10 () in
  let plan = plan_of cat "select id from t where amount > $1" in
  let a = unit_of cat plan ~params:[| V.VInt 3 |] in
  let b = unit_of cat plan ~params:[| V.VInt 77 |] in
  let c = unit_of cat plan ~params:[| V.Null |] in
  Alcotest.(check bool) "same types, same unit" true (String.equal a b);
  Alcotest.(check bool) "NULL parameter, own unit" false (String.equal a c)

let test_sort_code () =
  let cat = Helpers.small_catalog ~n:10 () in
  let code =
    unit_of cat
      (plan_of cat "select id, amount from t order by amount desc limit 3")
      ~params:[||]
  in
  Alcotest.(check bool) "stable sort on an arrival number" true
    (contains code "icmp(a->seq, b->seq)" && contains code "qsort(");
  Alcotest.(check bool) "limit over sort keeps a top-k heap" true
    (contains code "_down(s" && not (contains code "goto lim"));
  let plain =
    unit_of cat (plan_of cat "select id, amount from t limit 3") ~params:[||]
  in
  Alcotest.(check bool) "a limit without sort ends the emission early" true
    (contains plain "goto lim" && not (contains plain "_down("))

let suite =
  [
    Alcotest.test_case "example query (Fig 2c)" `Quick test_example_query_code;
    Alcotest.test_case "group by" `Quick test_group_by_code;
    Alcotest.test_case "hash join" `Quick test_join_code;
    Alcotest.test_case "index scan" `Quick test_index_scan_code;
    Alcotest.test_case "parameters are run-time values" `Quick
      test_params_are_runtime;
    Alcotest.test_case "sort and limit" `Quick test_sort_code;
    Alcotest.test_case "typed entries" `Quick test_typed_entries;
    Alcotest.test_case "groupjoins" `Quick test_groupjoins;
  ]
