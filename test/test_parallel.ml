(* Morsel-driven parallel execution: result determinism across engines,
   Stats.merge algebra, and miss-counter parity of measured parallel runs. *)

open Helpers
module Engine = Engines.Engine
module Parallel = Engines.Parallel
module Stats = Memsim.Stats

(* ------------------------------------------------------------------ *)
(* (a) parallel == sequential for every engine and morsel boundary     *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    ("project", "select id, name, score from t");
    ("select", "select id, amount from t where amount < 50");
    ( "group",
      "select grp, sum(amount), min(id), max(amount), count(*) from t \
       group by grp" );
    ("avg", "select grp, avg(amount) from t group by grp");
    ("global", "select sum(amount), count(*) from t");
    ("fallback-sort", "select id from t order by amount, id");
  ]

let check_result label (expected : Engines.Runtime.result)
    (got : Engines.Runtime.result) =
  Alcotest.(check (array string))
    (label ^ " columns") expected.Engines.Runtime.columns
    got.Engines.Runtime.columns;
  check_rows (label ^ " rows") expected.Engines.Runtime.rows
    got.Engines.Runtime.rows

(* Odd boundaries on purpose: 500 rows over 64-row morsels (last morsel
   partial), 37 rows (smaller than one morsel) and an empty relation. *)
let test_engines_agree () =
  List.iter
    (fun n ->
      let cat = small_catalog ~n () in
      List.iter
        (fun (qname, sql) ->
          let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
          iter_engines (fun engine ->
              let expected = Engine.run engine cat plan ~params:[||] in
              List.iter
                (fun domains ->
                  let got =
                    Engine.run ~domains ~morsel_size:64 engine cat plan
                      ~params:[||]
                  in
                  check_result
                    (Printf.sprintf "%s/%s n=%d domains=%d" qname
                       (Engine.name engine) n domains)
                    expected got)
                [ 1; 2; 4 ]))
        queries)
    [ 500; 37; 0 ]

let test_parallelizable () =
  let cat = small_catalog () in
  let plan sql = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  Alcotest.(check bool)
    "select pipeline" true
    (Parallel.parallelizable (plan "select id from t where amount < 50"));
  Alcotest.(check bool)
    "group-by over pipeline" true
    (Parallel.parallelizable
       (plan "select grp, sum(amount) from t group by grp"));
  Alcotest.(check bool)
    "sort is sequential" false
    (Parallel.parallelizable (plan "select id from t order by amount"))

(* ------------------------------------------------------------------ *)
(* (b) Stats.merge is associative and commutative                      *)
(* ------------------------------------------------------------------ *)

let stats_gen =
  QCheck.Gen.(
    map
      (fun l ->
        match l with
        | [ a; r; w; l1; l2; llc; ls; lr; tlb; pf; mem; cpu ] ->
            {
              Stats.accesses = a; reads = r; writes = w; l1_misses = l1;
              l2_misses = l2; llc_accesses = llc; llc_seq_misses = ls;
              llc_rand_misses = lr; tlb_misses = tlb; prefetches = pf;
              mem_cycles = mem; cpu_cycles = cpu;
            }
        | _ -> assert false)
      (list_repeat 12 (int_bound 1000)))

let stats_arb =
  QCheck.make stats_gen
    ~print:(fun s ->
      Printf.sprintf "{acc=%d mem=%d cpu=%d ...}" s.Stats.accesses
        s.Stats.mem_cycles s.Stats.cpu_cycles)

let qcheck_merge_commutative =
  QCheck.Test.make ~count:500 ~name:"Stats.merge commutative"
    (QCheck.pair stats_arb stats_arb)
    (fun (a, b) -> Stats.merge a b = Stats.merge b a)

let qcheck_merge_associative =
  QCheck.Test.make ~count:500 ~name:"Stats.merge associative"
    (QCheck.triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) ->
      Stats.merge (Stats.merge a b) c = Stats.merge a (Stats.merge b c))

let test_merge_identity () =
  let z = Stats.create () in
  let s =
    { z with Stats.accesses = 7; reads = 5; writes = 2; mem_cycles = 90;
      cpu_cycles = 11 }
  in
  Alcotest.(check bool) "zero is left identity" true (Stats.merge z s = s);
  Alcotest.(check bool) "zero is right identity" true (Stats.merge s z = s)

(* ------------------------------------------------------------------ *)
(* (c) measured parallel run: summed miss counters == sequential       *)
(* ------------------------------------------------------------------ *)

(* On a read-only scan every morsel starts on a cache-line and TLB-page
   boundary (morsel size 4096 divides any row offset into aligned byte
   offsets), so each line and page is touched from exactly one domain and
   the summed traffic equals the sequential run's.  The split between
   prefetched and random LLC misses shifts (each domain restarts the
   prefetcher's streams) but their sum is invariant.  Cycle counts are
   max-over-domains and not comparable. *)
let test_measured_parity () =
  let run domains =
    let hier = Memsim.Hierarchy.create () in
    let cat = Workloads.Microbench.build ~hier ~n:10_000 () in
    let plan =
      Relalg.Planner.plan cat (Relalg.Sql.parse cat "select A, B from R")
    in
    Engine.run_measured ~domains Engine.Jit cat plan ~params:[||]
  in
  let r_seq, seq = run 1 in
  let r_par, par = run 3 in
  check_result "scan rows" r_seq r_par;
  let counters (s : Stats.t) =
    [
      ("accesses", s.Stats.accesses); ("reads", s.Stats.reads);
      ("writes", s.Stats.writes); ("l1_misses", s.Stats.l1_misses);
      ("l2_misses", s.Stats.l2_misses);
      ("llc_accesses", s.Stats.llc_accesses);
      ("llc_misses", s.Stats.llc_seq_misses + s.Stats.llc_rand_misses);
      ("tlb_misses", s.Stats.tlb_misses);
    ]
  in
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) name a b)
    (counters seq) (counters par)

(* ------------------------------------------------------------------ *)
(* (d) one prepared path: unsplittable plans, untraced runs, sizes     *)
(* ------------------------------------------------------------------ *)

let stats_testable = Alcotest.testable Stats.pp ( = )

(* A join and a sort have no morsel shape: measured at two domains they run
   as one prepared pipeline on the catalog's own hierarchy, cold, exactly
   as a one-domain run does.  Each run gets a fresh catalog so that both
   allocate their intermediates at the same simulated addresses. *)
let test_unsplittable_measured () =
  List.iter
    (fun sql ->
      let run domains =
        let cat = join_catalog () in
        let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
        Alcotest.(check bool)
          (sql ^ ": no morsel shape") false
          (Parallel.parallelizable plan);
        Engine.run_measured ~domains Engine.Jit cat plan ~params:[||]
      in
      let r1, s1 = run 1 in
      let r2, s2 = run 2 in
      check_result sql r1 r2;
      Alcotest.check stats_testable (sql ^ ": stats") s1 s2;
      Alcotest.(check bool) (sql ^ ": traced") true (s1.Stats.accesses > 0))
    [
      "select region, total from cust join ord on cid = ocid";
      "select oid, total from ord order by total, oid";
    ]

(* An untraced run ([mrdb_cli run --untraced]) at any domain count leaves
   the catalog's hierarchy untouched, whether the plan splits into morsels
   (the scan) or runs as one pipeline (the join). *)
let test_untraced_counts_nothing () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Workloads.Microbench.build ~hier ~n:20_000 () in
  let jcat = join_catalog () in
  let jhier = Option.get (Storage.Catalog.hier jcat) in
  let plan cat sql = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  List.iter
    (fun (what, cat, h, plan) ->
      List.iter
        (fun domains ->
          Memsim.Hierarchy.reset_stats h;
          let r =
            Memsim.Hierarchy.without_tracing h (fun () ->
                Engine.run ~domains Engine.Jit cat plan ~params:[||])
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s d%d: rows" what domains)
            true (r.Engines.Runtime.rows <> []);
          Alcotest.check stats_testable
            (Printf.sprintf "%s d%d: counters" what domains)
            (Stats.create ())
            (Memsim.Hierarchy.snapshot h))
        [ 1; 2 ])
    [
      ("scan", cat, hier, plan cat "select A, B from R where A < 5000");
      ( "join",
        jcat,
        jhier,
        plan jcat "select region, total from cust join ord on cid = ocid" );
    ]

let qcheck_derived_morsel_size =
  QCheck.Test.make ~count:1000
    ~name:"derived morsel size is a positive multiple of 4096"
    QCheck.(pair (int_bound 100_000_000) (int_range 1 256))
    (fun (rows, domains) ->
      let m = Parallel.derived_morsel_size ~rows ~domains in
      m >= 4096 && m mod 4096 = 0)

(* With no size given the run derives one from the driver table's rows and
   the domain count; over a table of many such morsels the result equals
   the sequential run, and the gauge reads the size used (also when the
   caller gives one).  The table is large enough for a size above the
   4096 floor. *)
let test_derived_size_run () =
  let n = 600_000 and domains = 2 in
  let schema = Storage.Schema.make "t" [ ("id", V.Int); ("grp", V.Int) ] in
  let cat = Storage.Catalog.create () in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  Storage.Relation.load_int_rows rel ~n (fun ~row dst ->
      dst.(0) <- row;
      dst.(1) <- row mod 7);
  let gauge () =
    int_of_float (Obs.Metrics.gauge_value (Parallel.morsel_size_gauge ()))
  in
  let size = Parallel.derived_morsel_size ~rows:n ~domains in
  Alcotest.(check int) "derived size" 8192 size;
  List.iter
    (fun sql ->
      let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
      let expected = Engine.run Engine.Jit cat plan ~params:[||] in
      let got = Engine.run ~domains Engine.Jit cat plan ~params:[||] in
      check_result sql expected got;
      Alcotest.(check int) (sql ^ ": gauge") size (gauge ());
      ignore
        (Engine.run ~domains ~morsel_size:64 Engine.Jit cat plan ~params:[||]);
      Alcotest.(check int) (sql ^ ": given size") 64 (gauge ()))
    [
      "select id from t where grp < 2";
      "select grp, sum(id), count(*) from t group by grp";
      "select sum(id), min(grp) from t";
    ]

(* A measured run splits the morsels by domain up front, with no
   stealing: which domain's private hierarchy counts a morsel must not
   depend on how the host schedules the domains.  20,000 micro rows at two
   domains are five 4,096-row morsels, two for one domain and three for
   the other; with stealing the cycle count varied between runs. *)
let test_measured_morsels_repeat () =
  let run () =
    let hier = Memsim.Hierarchy.create () in
    let cat = Workloads.Microbench.build ~hier ~n:20_000 () in
    let plan =
      Relalg.Planner.plan cat
        (Relalg.Sql.parse cat
           "select sum(b), sum(c), count(*) from r where a < 2000")
    in
    Alcotest.(check bool) "splits into morsels" true
      (Parallel.parallelizable plan);
    Engine.run_measured ~domains:2 Engine.Jit cat plan ~params:[||]
  in
  let r0, s0 = run () in
  for i = 2 to 5 do
    let r, s = run () in
    check_result (Printf.sprintf "run %d rows" i) r0 r;
    Alcotest.check stats_testable (Printf.sprintf "run %d stats" i) s0 s
  done

let suite =
  [
    Alcotest.test_case "parallel equals sequential (all engines)" `Quick
      test_engines_agree;
    Alcotest.test_case "parallelizable plan shapes" `Quick test_parallelizable;
    QCheck_alcotest.to_alcotest qcheck_merge_commutative;
    QCheck_alcotest.to_alcotest qcheck_merge_associative;
    Alcotest.test_case "Stats.merge identity" `Quick test_merge_identity;
    Alcotest.test_case "measured parallel miss parity" `Quick
      test_measured_parity;
    Alcotest.test_case "unsplittable plans measure as one domain" `Quick
      test_unsplittable_measured;
    Alcotest.test_case "untraced runs count nothing" `Quick
      test_untraced_counts_nothing;
    QCheck_alcotest.to_alcotest qcheck_derived_morsel_size;
    Alcotest.test_case "derived morsel size run" `Quick test_derived_size_run;
    Alcotest.test_case "measured morsel runs repeat" `Quick
      test_measured_morsels_repeat;
  ]
