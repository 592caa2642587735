(* Engine tests: each engine individually against golden results, all four
   engines against each other (including property-based random queries), and
   the cost-accounting invariants the paper's comparison rests on. *)

module V = Storage.Value
module Engine = Engines.Engine
module Runtime = Engines.Runtime

let engines = Engine.all

let golden_filter_expected =
  (* grp = 3 -> rows 3, 10, 17, ... *)
  let rec go tid acc =
    if tid >= 100 then List.rev acc
    else if tid mod 7 = 3 then go (tid + 1) (V.VInt tid :: acc)
    else go (tid + 1) acc
  in
  List.map (fun v -> [| v |]) (go 0 [])

let test_filter_golden engine () =
  let cat = Helpers.small_catalog ~n:100 () in
  let r =
    Helpers.run_sql ~engine ~params:[| V.VInt 3 |] cat
      "select id from t where grp = $1"
  in
  Helpers.check_rows "filtered ids" golden_filter_expected
    r.Runtime.rows

let test_aggregate_golden engine () =
  let cat = Helpers.small_catalog ~n:100 () in
  let r =
    Helpers.run_sql ~engine cat
      "select count(*) c, sum(amount) s, min(id) mn, max(id) mx from t"
  in
  let amount_sum =
    List.fold_left (fun acc i -> acc + (i * 3 mod 101)) 0 (List.init 100 Fun.id)
  in
  Helpers.check_rows "global aggregate"
    [ [| V.VInt 100; V.VInt amount_sum; V.VInt 0; V.VInt 99 |] ]
    r.Runtime.rows

let test_group_by_golden engine () =
  let cat = Helpers.small_catalog ~n:70 () in
  let r =
    Helpers.run_sql ~engine cat
      "select grp, count(*) c from t group by grp order by grp"
  in
  Helpers.check_rows "balanced groups"
    (List.init 7 (fun g -> [| V.VInt g; V.VInt 10 |]))
    r.Runtime.rows

let test_empty_aggregate engine () =
  let cat = Helpers.small_catalog ~n:50 () in
  let r =
    Helpers.run_sql ~engine ~params:[| V.VInt (-1) |] cat
      "select count(*) c, sum(amount) s from t where grp = $1"
  in
  Helpers.check_rows "count 0, sum null"
    [ [| V.VInt 0; V.Null |] ]
    r.Runtime.rows

let test_join_golden engine () =
  let cat = Helpers.join_catalog ~n_orders:60 ~n_customers:10 () in
  let r =
    Helpers.run_sql ~engine cat
      "select region, count(*) c from cust join ord on cid = ocid group by \
       region order by region"
  in
  (* 10 customers in 4 regions: r0 x {0,4,8}, r1 x {1,5,9}, r2 x {2,6},
     r3 x {3,7}; 60 orders round-robin over customers = 6 per customer *)
  Helpers.check_rows "join group counts"
    [
      [| V.VStr "r0"; V.VInt 18 |];
      [| V.VStr "r1"; V.VInt 18 |];
      [| V.VStr "r2"; V.VInt 12 |];
      [| V.VStr "r3"; V.VInt 12 |];
    ]
    r.Runtime.rows

let test_sort_limit engine () =
  let cat = Helpers.small_catalog ~n:30 () in
  let r =
    Helpers.run_sql ~engine cat
      "select id from t order by id desc limit 4"
  in
  Helpers.check_rows "top 4 desc"
    [ [| V.VInt 29 |]; [| V.VInt 28 |]; [| V.VInt 27 |]; [| V.VInt 26 |] ]
    r.Runtime.rows

let test_insert engine () =
  let cat = Helpers.small_catalog ~n:5 () in
  ignore
    (Helpers.run_sql ~engine cat
       "insert into t values (100, 1, 2, 'inserted', 0.5)");
  let rel = Storage.Catalog.find cat "t" in
  Alcotest.(check int) "row appended" 6 (Storage.Relation.nrows rel);
  Alcotest.(check Helpers.value_testable) "value stored" (V.VStr "inserted")
    (Storage.Relation.get rel 5 3)

let test_projection_expressions engine () =
  let cat = Helpers.small_catalog ~n:10 () in
  let r =
    Helpers.run_sql ~engine cat "select id + 1 inc, id * 2 dbl from t where id < 3"
  in
  Helpers.check_rows "computed columns"
    [
      [| V.VInt 1; V.VInt 0 |];
      [| V.VInt 2; V.VInt 2 |];
      [| V.VInt 3; V.VInt 4 |];
    ]
    r.Runtime.rows

let test_like_predicate engine () =
  let cat = Helpers.small_catalog ~n:60 () in
  let r =
    Helpers.run_sql ~engine ~params:[| V.VStr "name00_" |] cat
      "select count(*) c from t where name like $1"
  in
  (* names cycle over name000..name049; name00_ matches name000..name009,
     60 rows cover name000..name049 once and name000..name009 again *)
  Helpers.check_rows "like matches" [ [| V.VInt 20 |] ] r.Runtime.rows

(* ------------------------------------------------------------------ *)
(* Aggregate edge cases (fuzz-harness companions)                      *)
(* ------------------------------------------------------------------ *)

(* A tiny nullable table whose [v] column is entirely NULL. *)
let nullable_catalog n =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let schema =
    Storage.Schema.make_nullable "nt"
      [ ("k", V.Int, false); ("v", V.Int, true) ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load rel ~n (fun ~row -> [| V.VInt (row mod 3); V.Null |]);
  cat

let test_grouped_aggregate_empty_input engine () =
  (* grouped aggregates over an empty input emit NO rows (unlike the global
     aggregate, which emits one initial-accumulator row) *)
  let cat = Helpers.small_catalog ~n:40 () in
  let r =
    Helpers.run_sql ~engine ~params:[| V.VInt (-1) |] cat
      "select grp, count(*) c, sum(amount) s from t where id = $1 group by grp"
  in
  Helpers.check_rows "no groups from empty input" [] r.Runtime.rows

let test_all_null_aggregates engine () =
  let cat = nullable_catalog 9 in
  let r =
    Helpers.run_sql ~engine cat
      "select count(*) cs, count(v) c, sum(v) s, min(v) mn, max(v) mx, \
       avg(v) a from nt"
  in
  (* count(v) skips NULLs; every other NULL-fed aggregate yields NULL *)
  Helpers.check_rows "all-NULL column"
    [ [| V.VInt 9; V.VInt 0; V.Null; V.Null; V.Null; V.Null |] ]
    r.Runtime.rows

let test_single_row_aggregates engine () =
  let cat = Helpers.small_catalog ~n:1 () in
  let r =
    Helpers.run_sql ~engine cat
      "select grp, count(*) c, sum(amount) s, min(id) mn, max(id) mx, \
       avg(score) a from t group by grp"
  in
  Helpers.check_rows "single-row group"
    [ [| V.VInt 0; V.VInt 1; V.VInt 0; V.VInt 0; V.VInt 0; V.VFloat 0.0 |] ]
    r.Runtime.rows

let test_group_by_every_column engine () =
  (* keying on every column makes each of the n distinct rows its own
     group; the aggregate degenerates to the identity *)
  let n = 23 in
  let cat = Helpers.small_catalog ~n () in
  let r =
    Helpers.run_sql ~engine cat
      "select id, grp, amount, name, score, count(*) c from t group by id, \
       grp, amount, name, score order by id"
  in
  Alcotest.(check int) "one group per row" n (List.length r.Runtime.rows);
  List.iteri
    (fun i row ->
      Alcotest.(check Helpers.value_testable) "key is row id" (V.VInt i) row.(0);
      Alcotest.(check Helpers.value_testable) "all groups singleton"
        (V.VInt 1) row.(5))
    r.Runtime.rows

let test_overflow_adjacent_sum engine () =
  (* sums flirting with max_int must wrap identically everywhere (OCaml
     ints wrap silently; the invariant is cross-engine identity, which the
     fuzzer's Big_int distribution also leans on) *)
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let schema = Storage.Schema.make "big" [ ("x", V.Int) ] in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  let near = (max_int / 2) - 3 in
  Storage.Relation.load rel ~n:4 (fun ~row -> [| V.VInt (near + row) |]);
  let r = Helpers.run_sql ~engine cat "select sum(x) s from big" in
  let expected = (4 * near) + 6 in
  Helpers.check_rows "wrapped sum identical"
    [ [| V.VInt expected |] ]
    r.Runtime.rows

let per_engine = Helpers.across_engines

(* ------------------------------------------------------------------ *)
(* Cross-engine equivalence                                            *)
(* ------------------------------------------------------------------ *)

let queries_for_equivalence =
  [
    ("select * from t", [||]);
    ("select id, score from t where amount >= $1", [| V.VInt 50 |]);
    ("select grp, sum(amount) s, avg(score) a from t group by grp", [||]);
    ("select count(*) c from t where name like 'name01%'", [||]);
    ( "select grp, count(*) c from t where id < $1 group by grp order by c \
       desc, grp",
      [| V.VInt 77 |] );
    ("select id from t where grp = 2 and amount < 40 order by id", [||]);
    ("select id % 5 bucket, count(*) c from t group by bucket order by bucket", [||]);
  ]

let test_engines_agree () =
  List.iter
    (fun layout ->
      let cat = Helpers.small_catalog ~n:200 ?layout () in
      List.iter
        (fun (sql, params) ->
          let reference =
            Helpers.sorted_rows
              (Helpers.run_sql ~engine:Engine.Jit ~params cat sql)
          in
          List.iter
            (fun engine ->
              let got =
                Helpers.sorted_rows (Helpers.run_sql ~engine ~params cat sql)
              in
              Helpers.check_rows
                (Printf.sprintf "%s on %s" (Engine.name engine) sql)
                reference got)
            engines)
        queries_for_equivalence)
    [
      None;
      Some [ [ "id" ]; [ "grp" ]; [ "amount" ]; [ "name" ]; [ "score" ] ];
      Some [ [ "id"; "amount" ]; [ "grp"; "name"; "score" ] ];
    ]

(* random single-table select/aggregate queries over random data *)
let qcheck_engines_agree =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* n = int_range 1 150 in
      let* threshold = int_bound 120 in
      let* use_group = bool in
      let* op = oneofl [ "<"; "<="; ">"; ">="; "="; "<>" ] in
      return (seed, n, threshold, use_group, op))
  in
  QCheck.Test.make ~count:60 ~name:"all engines agree on random queries"
    (QCheck.make gen)
    (fun (seed, n, threshold, use_group, op) ->
      let hier = Memsim.Hierarchy.create () in
      let cat = Storage.Catalog.create ~hier () in
      let schema =
        Storage.Schema.make "r" [ ("a", V.Int); ("b", V.Int); ("c", V.Int) ]
      in
      let rng = Mrdb_util.Rng.create seed in
      let layout =
        match Mrdb_util.Rng.int rng 3 with
        | 0 -> Storage.Layout.row schema
        | 1 -> Storage.Layout.column schema
        | _ -> Storage.Layout.of_names schema [ [ "a"; "c" ]; [ "b" ] ]
      in
      let rel = Storage.Catalog.add cat schema layout in
      Storage.Relation.load rel ~n (fun ~row ->
          ignore row;
          Array.init 3 (fun _ -> V.VInt (Mrdb_util.Rng.int rng 100)));
      let sql =
        if use_group then
          Printf.sprintf
            "select b %% 7 k, count(*) c, sum(c) s from r where a %s %d \
             group by k order by k"
            op threshold
        else
          Printf.sprintf "select a, b from r where a %s %d order by a, b" op
            threshold
      in
      let results =
        List.map
          (fun e -> Helpers.sorted_rows (Helpers.run_sql ~engine:e cat sql))
          engines
      in
      match results with
      | ref :: rest -> List.for_all (fun r -> r = ref) rest
      | [] -> true)

(* ------------------------------------------------------------------ *)
(* Cost accounting invariants                                          *)
(* ------------------------------------------------------------------ *)

let test_cpu_efficiency_ordering () =
  let cat = Helpers.small_catalog ~n:2000 () in
  let sql = "select sum(amount) s from t where grp = $1" in
  let cost engine =
    let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
    let _, st = Engine.run_measured engine cat plan ~params:[| V.VInt 1 |] in
    Memsim.Stats.total_cycles st
  in
  let jit = cost Engine.Jit
  and bulk = cost Engine.Bulk
  and volcano = cost Engine.Volcano
  and hyrise = cost Engine.Hyrise in
  Alcotest.(check bool) "jit <= bulk" true (jit <= bulk);
  Alcotest.(check bool) "bulk << volcano" true (3 * bulk < volcano);
  Alcotest.(check bool) "jit << hyrise" true (3 * jit < hyrise)

let test_jit_reads_only_needed_columns () =
  (* with a pure column layout, an aggregate touching 1 of 5 columns must
     read less relation data than one touching all of them; the aggregation
     machinery is identical in both queries *)
  let cat =
    Helpers.small_catalog ~n:2000
      ~layout:[ [ "id" ]; [ "grp" ]; [ "amount" ]; [ "name" ]; [ "score" ] ]
      ()
  in
  let hier = Option.get (Storage.Catalog.hier cat) in
  let reads sql =
    Memsim.Hierarchy.reset hier;
    ignore (Helpers.run_sql ~engine:Engine.Jit cat sql);
    (Memsim.Hierarchy.stats hier).Memsim.Stats.reads
  in
  let narrow = reads "select sum(amount) s from t" in
  let wide =
    reads
      "select sum(amount) s, sum(id) a, sum(grp) b, sum(score) c, count(name)        d from t"
  in
  Alcotest.(check bool)
    (Printf.sprintf "narrow reads less (%d vs %d)" narrow wide)
    true
    (narrow * 3 < wide * 2)

let test_selectivity_affects_conditional_reads () =
  let cat =
    Helpers.small_catalog ~n:5000 ~layout:[ [ "id" ]; [ "grp" ]; [ "amount" ]; [ "name" ]; [ "score" ] ] ()
  in
  let hier = Option.get (Storage.Catalog.hier cat) in
  let accesses sel_param =
    Memsim.Hierarchy.reset hier;
    ignore
      (Helpers.run_sql ~engine:Engine.Jit ~params:[| V.VInt sel_param |] cat
         "select sum(amount) s from t where id < $1");
    (Memsim.Hierarchy.stats hier).Memsim.Stats.accesses
  in
  let low = accesses 50 in
  let high = accesses 5000 in
  Alcotest.(check bool) "higher selectivity reads more" true
    (low + 1000 < high)

let test_volcano_reads_full_tuples () =
  (* Volcano's generic scan must touch every attribute even when the query
     needs one column *)
  let cat = Helpers.small_catalog ~n:1000 () in
  let hier = Option.get (Storage.Catalog.hier cat) in
  let accesses engine =
    Memsim.Hierarchy.reset hier;
    ignore (Helpers.run_sql ~engine cat "select count(*) c from t where grp = 1");
    (Memsim.Hierarchy.stats hier).Memsim.Stats.accesses
  in
  Alcotest.(check bool) "volcano touches far more memory" true
    (accesses Engine.Volcano > 3 * accesses Engine.Jit)

let test_bulk_materialization_traffic () =
  (* bulk writes candidate vectors; its write count must exceed jit's *)
  let cat = Helpers.small_catalog ~n:2000 () in
  let hier = Option.get (Storage.Catalog.hier cat) in
  let writes engine =
    Memsim.Hierarchy.reset hier;
    ignore
      (Helpers.run_sql ~engine ~params:[| V.VInt 1000 |] cat
         "select sum(amount) s from t where id < $1");
    (Memsim.Hierarchy.stats hier).Memsim.Stats.writes
  in
  Alcotest.(check bool) "bulk writes intermediates" true
    (writes Engine.Bulk > writes Engine.Jit + 500)

let test_run_measured_cold_vs_warm () =
  let cat = Helpers.small_catalog ~n:3000 () in
  let plan =
    Relalg.Planner.plan cat (Relalg.Sql.parse cat "select sum(amount) s from t")
  in
  let _, cold = Engine.run_measured Engine.Jit cat plan ~params:[||] in
  let hier = Option.get (Storage.Catalog.hier cat) in
  Memsim.Hierarchy.reset_stats hier;
  ignore (Engine.run Engine.Jit cat plan ~params:[||]);
  let warm = Memsim.Hierarchy.snapshot hier in
  Alcotest.(check bool) "warm run at most cold cost" true
    (Memsim.Stats.total_cycles warm <= Memsim.Stats.total_cycles cold)

let test_index_scan_vs_full_scan_cycles () =
  let cat = Helpers.small_catalog ~n:5000 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let logical = Relalg.Sql.parse cat "select * from t where id = $1" in
  let cost ~use_indexes =
    let plan = Relalg.Planner.plan ~use_indexes cat logical in
    let _, st = Engine.run_measured Engine.Jit cat plan ~params:[| V.VInt 2500 |] in
    Memsim.Stats.total_cycles st
  in
  let full = cost ~use_indexes:false and indexed = cost ~use_indexes:true in
  Alcotest.(check bool) "index lookup orders faster" true
    (100 * indexed < full)

(* Index access paths answer as the same SQL planned without indexes: a
   hash-index equality lookup with a residual predicate and an Rbtree range
   scan with one strict bound, under row and column layouts. *)
let test_index_scans engine () =
  let queries =
    [
      ( "select id, amount, name from t where grp = $1 and amount < $2",
        [| V.VInt 3; V.VInt 50 |] );
      ( "select id, score from t where id > $1 and id <= $2",
        [| V.VInt 40; V.VInt 120 |] );
    ]
  in
  List.iter
    (fun layout ->
      let cat = Helpers.small_catalog ~n:300 ?layout () in
      Storage.Catalog.create_index cat "t" ~name:"t_grp"
        ~kind:Storage.Index.Hash ~attrs:[ "grp" ];
      Storage.Catalog.create_index cat "t" ~name:"t_id"
        ~kind:Storage.Index.Rbtree ~attrs:[ "id" ];
      List.iter
        (fun (sql, params) ->
          let logical = Relalg.Sql.parse cat sql in
          let run ~use_indexes =
            let plan = Relalg.Planner.plan ~use_indexes cat logical in
            (plan, Helpers.sorted_rows (Engine.run engine cat plan ~params))
          in
          let plan, got = run ~use_indexes:true in
          (match plan with
          | Relalg.Physical.Project
              { child = Relalg.Physical.Scan { access; _ }; _ } ->
              Alcotest.(check bool)
                (sql ^ " uses an index") true
                (access <> Relalg.Physical.Full_scan)
          | p ->
              Alcotest.failf "unexpected plan %a" Relalg.Physical.pp p);
          let _, expected = run ~use_indexes:false in
          Alcotest.(check bool) (sql ^ " finds rows") true (expected <> []);
          Helpers.check_rows sql expected got)
        queries)
    [ None; Some [ [ "id" ]; [ "grp" ]; [ "amount" ]; [ "name" ]; [ "score" ] ] ]

let suite =
  per_engine "filter golden" test_filter_golden
  @ per_engine "aggregate golden" test_aggregate_golden
  @ per_engine "group by golden" test_group_by_golden
  @ per_engine "empty aggregate" test_empty_aggregate
  @ per_engine "join golden" test_join_golden
  @ per_engine "sort+limit" test_sort_limit
  @ per_engine "insert" test_insert
  @ per_engine "projection exprs" test_projection_expressions
  @ per_engine "like predicate" test_like_predicate
  @ per_engine "grouped aggregate, empty input" test_grouped_aggregate_empty_input
  @ per_engine "all-NULL aggregates" test_all_null_aggregates
  @ per_engine "single-row aggregates" test_single_row_aggregates
  @ per_engine "group by every column" test_group_by_every_column
  @ per_engine "overflow-adjacent sum" test_overflow_adjacent_sum
  @ [
      Alcotest.test_case "engines agree (fixed queries x layouts)" `Quick
        test_engines_agree;
      QCheck_alcotest.to_alcotest qcheck_engines_agree;
      Alcotest.test_case "cpu efficiency ordering" `Quick
        test_cpu_efficiency_ordering;
      Alcotest.test_case "jit conditional column reads" `Quick
        test_jit_reads_only_needed_columns;
      Alcotest.test_case "selectivity drives traffic" `Quick
        test_selectivity_affects_conditional_reads;
      Alcotest.test_case "volcano full-tuple scans" `Quick
        test_volcano_reads_full_tuples;
      Alcotest.test_case "bulk materialization traffic" `Quick
        test_bulk_materialization_traffic;
      Alcotest.test_case "cold vs warm measurement" `Quick
        test_run_measured_cold_vs_warm;
      Alcotest.test_case "index vs scan cycles" `Quick
        test_index_scan_vs_full_scan_cycles;
    ]
  @ per_engine "index scans" test_index_scans

(* ------------------------------------------------------------------ *)
(* The engines' host hash table against an assoc-list model            *)
(* ------------------------------------------------------------------ *)

(* [Runtime.Sim_hash] against a model of its rules: entries in an
   association list; a match probe keeps the entries whose fold agrees and
   whose keys are pairwise [Value.equal], oldest first; [find_or_add] takes
   the newest entry whose fold agrees and whose key list compares equal
   under [compare]; the simulated table holds 64 slots at first and doubles
   into a fresh arena region when more than half full; each call touches
   [slot * entry_width] bytes into it in a fixed order.  The key pool
   collides in the fold: [VInt 1], [VDate 1] and [VBool true] share one, as
   do [VInt 0], [0.], [-0.] and [VBool false]; NaNs with and without their
   sign bit share one, and 64 and 128 share a slot. *)
module Sim_hash = Runtime.Sim_hash

type hash_op =
  | Add of V.t list
  | Find of V.t list
  | Find_or_add of V.t list
  | Clear

let key_pool =
  [|
    V.VInt 1; V.VDate 1; V.VBool true; V.VFloat 1.0; V.VInt 0; V.VFloat 0.;
    V.VFloat (-0.); V.VBool false; V.Null; V.VFloat Float.nan;
    V.VFloat (-.Float.nan); V.VFloat (Int64.float_of_bits 0x7FF0000000000001L);
    V.VStr "a"; V.VInt 64; V.VInt 128;
  |]

let pp_key k = "[" ^ String.concat "; " (List.map V.to_display k) ^ "]"

let pp_hash_op = function
  | Add k -> "add " ^ pp_key k
  | Find k -> "find " ^ pp_key k
  | Find_or_add k -> "find_or_add " ^ pp_key k
  | Clear -> "clear"

let hash_ops_arb =
  let open QCheck.Gen in
  let value = map (Array.get key_pool) (int_bound (Array.length key_pool - 1)) in
  (* one key arity per table, as in a join or a group-by; clears are rare
     enough that a table often grows past 64 and 128 slots *)
  let ops arity =
    let key = list_repeat arity value in
    list_size (int_range 1 400)
      (frequency
         [
           (40, map (fun k -> Add k) key);
           (30, map (fun k -> Find k) key);
           (40, map (fun k -> Find_or_add k) key);
           (1, return Clear);
         ])
  in
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "entry_width %d: %s" w
        (String.concat ", " (List.map pp_hash_op ops)))
    ~shrink:QCheck.Shrink.(pair nil list)
    (pair (oneofl [ 16; 24; 72 ]) (int_range 1 2 >>= ops))

type hash_model = {
  arena : Storage.Arena.t;
  width : int;
  mutable entries : (int * V.t list * int ref) list; (* newest first *)
  mutable count : int;
  mutable slots : int;
  mutable base : int;
  mutable touches : (int * int * bool) list; (* newest first *)
}

let model_touch m ~write fold =
  m.touches <-
    (m.base + ((fold land (m.slots - 1)) * m.width), min m.width 64, write)
    :: m.touches

let model_grow m =
  if 2 * m.count > m.slots then begin
    m.slots <- 2 * m.slots;
    m.base <- Storage.Arena.alloc m.arena (m.slots * m.width)
  end

(* The table under test is driven through [add], [find] and [find_or_add],
   the model through the key lists the ops carry; [entry_key t i k] is the
   key list of entry [i], which {!Sim_hash.iter} gives as [k]. *)
let sim_hash_model ~name arb ~add ~find ~find_or_add ~entry_key =
  QCheck.Test.make ~count:300 ~name arb (fun (width, ops) ->
      let recorded = ref [] in
      let walker _params _stats =
        {
          Memsim.Hierarchy.touch =
            (fun ~addr ~width ~is_write ->
              recorded := (addr, width, is_write) :: !recorded);
          touch_run =
            (fun ~addr:_ ~width:_ ~count:_ ~stride:_ ~is_write:_ ->
              failwith "the table traces no runs");
          clear = ignore;
        }
      in
      let hier = Memsim.Hierarchy.create ~reference:walker () in
      let t =
        Sim_hash.create ~hier (Storage.Arena.create ()) ~entry_width:width ()
      in
      let arena = Storage.Arena.create () in
      let m =
        {
          arena;
          width;
          entries = [];
          count = 0;
          slots = 64;
          base = Storage.Arena.alloc arena (64 * 16);
          touches = [];
        }
      in
      let fold = Storage.Hash_index.key_of_values in
      let fresh = ref 0 in
      List.iteri
        (fun step op ->
          let fail fmt =
            Printf.ksprintf
              (fun s -> QCheck.Test.fail_reportf "op %d (%s): %s" step
                          (pp_hash_op op) s)
              fmt
          in
          match op with
          | Add key ->
              incr fresh;
              add t key !fresh;
              model_grow m;
              model_touch m ~write:true (fold key);
              m.entries <- (fold key, key, ref !fresh) :: m.entries;
              m.count <- m.count + 1
          | Find key ->
              let got = ref [] in
              find t key (fun v -> got := v :: !got);
              model_touch m ~write:false (fold key);
              let want =
                List.filter_map
                  (fun (f, k, v) ->
                    if f = fold key && List.for_all2 V.equal k key then
                      Some !v
                    else None)
                  (List.rev m.entries)
              in
              if List.rev !got <> want then
                fail "matches [%s], model [%s]"
                  (String.concat "; " (List.rev_map string_of_int !got))
                  (String.concat "; " (List.map string_of_int want))
          | Find_or_add key -> (
              let i = find_or_add t key in
              model_touch m ~write:false (fold key);
              model_touch m ~write:true (fold key);
              match
                List.find_opt
                  (fun (f, k, _) -> f = fold key && compare k key = 0)
                  m.entries
              with
              | Some (_, _, v) ->
                  if i < 0 then fail "added, model found %d" !v
                  else if Sim_hash.value t i <> !v then
                    fail "found %d, model %d" (Sim_hash.value t i) !v;
                  incr v;
                  Sim_hash.set_value t i !v
              | None ->
                  if i >= 0 then fail "found %d, model added" (Sim_hash.value t i);
                  incr fresh;
                  Sim_hash.set_value t (lnot i) !fresh;
                  model_grow m;
                  m.entries <- (fold key, key, ref !fresh) :: m.entries;
                  m.count <- m.count + 1)
          | Clear ->
              Sim_hash.clear t;
              m.entries <- [];
              m.count <- 0;
              m.slots <- 64)
        ops;
      let got = ref [] and i = ref 0 in
      Sim_hash.iter t (fun k v ->
          got := (entry_key t !i k, v) :: !got;
          incr i);
      let want = List.map (fun (_, k, v) -> (k, !v)) m.entries in
      if compare !got want <> 0 then
        QCheck.Test.fail_report "entries differ from the model's";
      if Sim_hash.length t <> m.count then
        QCheck.Test.fail_reportf "length %d, model %d" (Sim_hash.length t)
          m.count;
      if !recorded <> m.touches then
        QCheck.Test.fail_reportf "%d touches, model %d (first difference at %d)"
          (List.length !recorded) (List.length m.touches)
          (let rec diff i a b =
             match (a, b) with
             | x :: a, y :: b when x = y -> diff (i + 1) a b
             | _ -> i
           in
           diff 0 (List.rev !recorded) (List.rev m.touches));
      true)

let qcheck_sim_hash_model =
  sim_hash_model ~name:"host hash table follows its model" hash_ops_arb
    ~add:(fun t key v -> Sim_hash.add t ~key v)
    ~find:(fun t key f -> Sim_hash.iter_matches t ~key f)
    ~find_or_add:(fun t key -> Sim_hash.find_or_add t ~key)
    ~entry_key:(fun _ _ key -> key)

(* One int key per entry, through the int calls: the model sees the key
   [[VInt k]], whose fold is [k]; 64 and 128 share a slot, and min_int / 2
   is the fold of a NULL key. *)
let int_hash_ops_arb =
  let open QCheck.Gen in
  let key =
    map
      (fun k -> [ V.VInt k ])
      (oneofl [ 0; 1; -1; 64; 128; 7; min_int / 2; max_int ])
  in
  QCheck.make
    ~print:(fun (w, ops) ->
      Printf.sprintf "entry_width %d: %s" w
        (String.concat ", " (List.map pp_hash_op ops)))
    ~shrink:QCheck.Shrink.(pair nil list)
    (pair (oneofl [ 16; 24; 72 ])
       (list_size (int_range 1 400)
          (frequency
             [
               (40, map (fun k -> Add k) key);
               (30, map (fun k -> Find k) key);
               (40, map (fun k -> Find_or_add k) key);
               (1, return Clear);
             ])))

let int_of_key = function [ V.VInt k ] -> k | _ -> assert false

let qcheck_int_sim_hash_model =
  sim_hash_model ~name:"int-keyed host hash table follows its model"
    int_hash_ops_arb
    ~add:(fun t key v -> Sim_hash.add_int t (int_of_key key) v)
    ~find:(fun t key f -> Sim_hash.iter_matches_int t (int_of_key key) f)
    ~find_or_add:(fun t key -> Sim_hash.find_or_add_int t (int_of_key key))
    ~entry_key:(fun t i _ -> [ V.VInt (Sim_hash.fold t i) ])

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_sim_hash_model;
      QCheck_alcotest.to_alcotest qcheck_int_sim_hash_model;
    ]
