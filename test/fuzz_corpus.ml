(* Regression corpus for the differential fuzzer.  Two kinds of entries:

   - seed replays: seeds that once produced interesting cases (or anchor the
     CI acceptance run) are regenerated from the generator and re-run through
     the full differential matrix; any divergence fails the suite.
   - pinned cases: hand-written or shrinker-emitted [Case.t] literals that
     stay green even if the generator's seed -> case mapping changes.

   The suite also re-proves the harness can catch bugs at all: the driver's
   Lt -> Le predicate mutation must diverge on the boundary case below, on
   every episode axis, and shrink to a handful of rows. *)

module V = Storage.Value
module Expr = Relalg.Expr
module Plan = Relalg.Plan
module Case = Fuzz.Case
module Harness = Fuzz.Harness

let outcome_label = function
  | Harness.Ok -> "ok"
  | Harness.Diverged ds ->
      Printf.sprintf "%d divergence(s), first: %s" (List.length ds)
        (Format.asprintf "%a" Fuzz.Driver.pp_divergence (List.hd ds))
  | Harness.Raised msg -> "exception: " ^ msg

let check_ok label outcome =
  Alcotest.(check string) label "ok" (outcome_label outcome)

(* A fuzz run on [axis] that must find nothing; a failure prints the
   first report, replay line included. *)
let check_sweep axis ~seed ~cases =
  match Harness.fuzz axis ~seed ~cases () with
  | [] -> ()
  | r :: _ -> Alcotest.failf "%a" (Harness.pp_report axis) r

(* ------------------------------------------------------------------ *)
(* Seed replays                                                        *)
(* ------------------------------------------------------------------ *)

(* Seeds the harness has already cleared in long runs; pinned here so a
   behavioural change in any engine (or the oracle) that disagrees on one of
   these cases is caught by `dune runtest`, not only by the next fuzz run.
   Replay any of them by hand with `mrdb_cli fuzz --seed N --cases 1`. *)
let regression_seeds =
  [
    42 (* first seed of the CI acceptance run *);
    47 (* caught the Lt->Le mutation during harness bring-up *);
    58 (* two-table episode with a join and an update *);
    123 (* zipf-skewed group-by with NULL-heavy aggregate input *);
    1000 (* first seed of the wide overnight hunt *);
    442 (* anchors the compressed-layout axis: the advisor picks non-plain
           schemes for this seed's generated data, so replay exercises
           direct execution on compressed partitions in every engine *);
  ]

let test_seed_replays () =
  List.iter
    (fun seed ->
      check_ok (Printf.sprintf "seed %d" seed)
        (Harness.outcome_of (Harness.matrix ()) (Fuzz.Gen.case seed)))
    regression_seeds

(* A short fresh sweep, distinct from the pinned seeds, so runtest always
   exercises the generator end-to-end on never-inspected cases. *)
let test_fresh_sweep () =
  check_sweep (Harness.matrix ~max_rows:60 ()) ~seed:9000 ~cases:8

(* ------------------------------------------------------------------ *)
(* Pinned boundary case                                                *)
(* ------------------------------------------------------------------ *)

(* Hand-written predicate-boundary case: rows 0..20 filtered by c0 < 10.
   Exactly one row (c0 = 10) separates Lt from Le, so the driver's injected
   mutation is guaranteed to diverge here — and the correct engines are
   guaranteed to agree with the oracle on the boundary row's exclusion. *)
let boundary_case =
  let rows = List.init 21 (fun i -> [| V.VInt i; V.VInt (i mod 3) |]) in
  {
    Case.seed = 0;
    tables =
      [
        {
          Case.tname = "t0";
          cols =
            [
              { Case.cname = "c0"; ty = V.Int; nullable = false };
              { Case.cname = "c1"; ty = V.Int; nullable = false };
            ];
          groups = [ [ 0 ]; [ 1 ] ];
          rows;
        };
      ];
    episode =
      [
        Case.Query
          (Plan.Select
             (Plan.Scan "t0", Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Const (V.VInt 10))));
        Case.Query
          (Plan.Group_by
             {
               child = Plan.Scan "t0";
               keys = [ (Expr.Col 1, "k") ];
               aggs =
                 [ Relalg.Aggregate.(make Sum ~expr:(Expr.Col 0) "s") ];
             });
      ];
    params = [| V.VInt 0; V.VInt 0 |];
  }

let test_boundary_case () =
  check_ok "pinned boundary case"
    (Harness.outcome_of (Harness.matrix ()) boundary_case)

(* ------------------------------------------------------------------ *)
(* Pinned compressed case                                              *)
(* ------------------------------------------------------------------ *)

(* Hand-written case whose data is compression-friendly by construction:
   c0 is sorted with long runs (RLE), c1 clusters in a narrow window
   (frame of reference).  The [Comp] layout mode therefore runs every
   engine directly on compressed partitions — run-granular selection,
   range-pruned FOR scans, and run-granular grouped aggregation — and the
   update in the episode exercises writes through the compressed stores. *)
let compressed_case =
  let rows =
    List.init 48 (fun i -> [| V.VInt (i / 8); V.VInt (100_000 + (i mod 9)) |])
  in
  {
    Case.seed = 0;
    tables =
      [
        {
          Case.tname = "t0";
          cols =
            [
              { Case.cname = "c0"; ty = V.Int; nullable = false };
              { Case.cname = "c1"; ty = V.Int; nullable = false };
            ];
          groups = [ [ 0; 1 ] ];
          rows;
        };
      ];
    episode =
      [
        Case.Query
          (Plan.Select
             (Plan.Scan "t0",
              Expr.Cmp (Expr.Ge, Expr.Col 0, Expr.Const (V.VInt 2))));
        Case.Query
          (Plan.Select
             (Plan.Scan "t0",
              Expr.Cmp (Expr.Lt, Expr.Col 1, Expr.Const (V.VInt 100_004))));
        Case.Query
          (Plan.Group_by
             {
               child = Plan.Scan "t0";
               keys = [ (Expr.Col 0, "k") ];
               aggs =
                 [
                   Relalg.Aggregate.(make Count_star "n");
                   Relalg.Aggregate.(make Sum ~expr:(Expr.Col 1) "s");
                 ];
             });
        Case.Exec
          (Plan.Update
             {
               table = "t0";
               pred =
                 Some (Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Const (V.VInt 3)));
               assignments = [ (1, Expr.Const (V.VInt 987_654_321)) ];
             });
        Case.Query
          (Plan.Group_by
             {
               child = Plan.Scan "t0";
               keys = [ (Expr.Col 0, "k") ];
               aggs = [ Relalg.Aggregate.(make Max ~expr:(Expr.Col 1) "m") ];
             });
      ];
    params = [| V.VInt 0; V.VInt 0 |];
  }

let test_compressed_case () =
  (* the advisor must actually compress this data, otherwise the pinned
     case stops covering the compressed axis *)
  let tab = List.hd compressed_case.Case.tables in
  let plan =
    Storage.Compress.plan_rows
      (Case.schema_of_table tab)
      (Array.of_list tab.Case.rows)
  in
  Alcotest.(check bool) "advisor compresses the pinned data" true (plan <> []);
  check_ok "pinned compressed case"
    (Harness.outcome_of (Harness.matrix ()) compressed_case)

let compressed_per_engine engine () =
  let oracle = Fuzz.Driver.oracle_results compressed_case in
  let out =
    Fuzz.Driver.run_combo ~engine ~mode:Case.Comp compressed_case ~oracle
  in
  match out.Fuzz.Driver.divergences with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "compressed case diverged: %a" Fuzz.Driver.pp_divergence d

(* The new-corpus-on-shared-runner entry: the pinned case, one Alcotest case
   per engine via [Helpers.across_engines], each engine checked directly
   against the oracle on NSM. *)
let boundary_per_engine engine () =
  let oracle = Fuzz.Driver.oracle_results boundary_case in
  let out =
    Fuzz.Driver.run_combo ~engine ~mode:Case.Nsm boundary_case ~oracle
  in
  match out.Fuzz.Driver.divergences with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "boundary case diverged: %a" Fuzz.Driver.pp_divergence d

(* ------------------------------------------------------------------ *)
(* Pinned join/sort case                                               *)
(* ------------------------------------------------------------------ *)

(* Hand-written case for the compiled engine's widest shape: a hash join
   feeding a group-by on a varchar key, sorted on every output column and
   cut by a limit, over partially decomposed layouts (each table split
   into two partitions).  Under [Pdsm] the compiled combo must run it
   natively and agree with the oracle row for row. *)
let join_sort_case =
  let names = [| ""; "ab"; "abc"; "b"; "ab" |] in
  let rows0 =
    List.init 30 (fun i ->
        [|
          V.VInt i;
          V.VInt (i mod 6);
          (if i mod 7 = 3 then V.Null else V.VStr names.(i mod 5));
        |])
  in
  let rows1 = List.init 8 (fun i -> [| V.VInt (i mod 5); V.VInt (10 * i) |]) in
  let join =
    Plan.Join
      {
        left = Plan.Scan "t1";
        right = Plan.Scan "t0";
        left_keys = [ 0 ];
        right_keys = [ 1 ];
      }
  in
  let grouped =
    Plan.Group_by
      {
        child = join;
        keys = [ (Expr.Col 4, "k") ];
        aggs =
          [
            Relalg.Aggregate.(make Sum ~expr:(Expr.Col 1) "s");
            Relalg.Aggregate.(make Count_star "n");
          ];
      }
  in
  let sorted =
    Plan.Sort
      {
        child = grouped;
        keys = [ (1, Plan.Desc); (0, Plan.Asc); (2, Plan.Asc) ];
      }
  in
  {
    Case.seed = 0;
    tables =
      [
        {
          Case.tname = "t0";
          cols =
            [
              { Case.cname = "c0"; ty = V.Int; nullable = false };
              { Case.cname = "c1"; ty = V.Int; nullable = false };
              { Case.cname = "c2"; ty = V.Varchar 5; nullable = true };
            ];
          groups = [ [ 0; 2 ]; [ 1 ] ];
          rows = rows0;
        };
        {
          Case.tname = "t1";
          cols =
            [
              { Case.cname = "d0"; ty = V.Int; nullable = false };
              { Case.cname = "d1"; ty = V.Int; nullable = false };
            ];
          groups = [ [ 1 ]; [ 0 ] ];
          rows = rows1;
        };
      ];
    episode = [ Case.Query sorted; Case.Query (Plan.Limit (sorted, 3)) ];
    params = [| V.VInt 0; V.VInt 0 |];
  }

let test_join_sort_case () =
  check_ok "pinned join/sort case"
    (Harness.outcome_of (Harness.matrix ()) join_sort_case);
  let fallbacks () =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compiled_fallbacks_total")
  in
  let f0 = fallbacks () in
  let oracle = Fuzz.Driver.oracle_results join_sort_case in
  let out =
    Fuzz.Driver.run_combo ~engine:Engines.Engine.Compiled ~mode:Case.Pdsm
      join_sort_case ~oracle
  in
  (match out.Fuzz.Driver.divergences with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "compiled pdsm diverged: %a" Fuzz.Driver.pp_divergence d);
  if Engines.Compiled.cc_available () then
    Alcotest.(check int) "both queries ran natively" f0 (fallbacks ())

(* ------------------------------------------------------------------ *)
(* Pinned advisor case                                                 *)
(* ------------------------------------------------------------------ *)

(* Hand-written case for the `fuzz --advisor` axis: a six-column table
   stored row-wise, hammered with a one-column aggregate — the IP advisor
   splits the hot column out mid-episode.  The wide query and the update
   that follow must still agree with the oracle, and so must the final
   table contents: reorganization never changes answers.  The suite also
   asserts the repartition actually happened, otherwise the pinned case
   would stop covering the axis. *)
let advisor_case =
  let rows =
    List.init 64 (fun i ->
        [|
          V.VInt i; V.VInt (i * 7 mod 13); V.VInt (i mod 5);
          V.VInt (1000 + i); V.VInt (i * i mod 97); V.VInt (i mod 2);
        |])
  in
  let narrow =
    Plan.Group_by
      {
        child = Plan.Scan "t0";
        keys = [];
        aggs = [ Relalg.Aggregate.(make Sum ~expr:(Expr.Col 0) "s") ];
      }
  in
  {
    Case.seed = 0;
    tables =
      [
        {
          Case.tname = "t0";
          cols =
            List.init 6 (fun i ->
                {
                  Case.cname = Printf.sprintf "c%d" i;
                  ty = V.Int;
                  nullable = false;
                });
          groups = [ [ 0; 1; 2; 3; 4; 5 ] ] (* starts as a row store *);
          rows;
        };
      ];
    episode =
      [
        Case.Query narrow;
        Case.Query narrow;
        Case.Query narrow;
        Case.Query narrow;
        Case.Query (Plan.Scan "t0");
        Case.Exec
          (Plan.Update
             {
               table = "t0";
               pred =
                 Some (Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Const (V.VInt 8)));
               assignments = [ (3, Expr.Const (V.VInt 424_242)) ];
             });
        Case.Query (Plan.Scan "t0");
        Case.Query narrow;
      ];
    params = [| V.VInt 0; V.VInt 0 |];
  }

let test_advisor_case () =
  let count () = Obs.Metrics.counter_value Fuzz.Driver.m_advisor_repartitions in
  let before = count () in
  check_ok "pinned advisor case"
    (Harness.outcome_of (Harness.advisor ()) advisor_case);
  let repartitions = count () - before in
  Alcotest.(check bool)
    (Printf.sprintf "advisor repartitioned mid-episode (got %d)" repartitions)
    true (repartitions > 0)

(* A short fresh advisor sweep so runtest always exercises the axis on
   generated cases too. *)
let test_advisor_sweep () =
  check_sweep (Harness.advisor ~max_rows:60 ()) ~seed:9100 ~cases:6

(* ------------------------------------------------------------------ *)
(* Pinned shard case                                                   *)
(* ------------------------------------------------------------------ *)

(* Hand-written case for the `fuzz --shards` axis: two tables sized so
   that one distributed run exercises every exchange shape — a gathered
   filter, a partially-aggregated group-by, a join (t1 is small enough
   that broadcast wins), and a 2PC update between queries.  Replayed over
   2 and 3 shards; answers, the final shard unions, and the post-recovery
   digests must all match the single-node oracle. *)
let shard_case =
  let rows0 =
    List.init 40 (fun i -> [| V.VInt i; V.VInt (i mod 6); V.VInt (i * 7 mod 53) |])
  in
  let rows1 = List.init 6 (fun i -> [| V.VInt i; V.VInt (i * 100) |]) in
  {
    Case.seed = 0;
    tables =
      [
        {
          Case.tname = "t0";
          cols =
            [
              { Case.cname = "c0"; ty = V.Int; nullable = false };
              { Case.cname = "c1"; ty = V.Int; nullable = false };
              { Case.cname = "c2"; ty = V.Int; nullable = false };
            ];
          groups = [ [ 0; 1; 2 ] ];
          rows = rows0;
        };
        {
          Case.tname = "t1";
          cols =
            [
              { Case.cname = "d0"; ty = V.Int; nullable = false };
              { Case.cname = "d1"; ty = V.Int; nullable = false };
            ];
          groups = [ [ 0 ]; [ 1 ] ];
          rows = rows1;
        };
      ];
    episode =
      [
        Case.Query
          (Plan.Select
             (Plan.Scan "t0",
              Expr.Cmp (Expr.Ge, Expr.Col 2, Expr.Const (V.VInt 20))));
        Case.Query
          (Plan.Group_by
             {
               child = Plan.Scan "t0";
               keys = [ (Expr.Col 1, "k") ];
               aggs =
                 [
                   Relalg.Aggregate.(make Sum ~expr:(Expr.Col 2) "s");
                   Relalg.Aggregate.(make Count_star "n");
                 ];
             });
        Case.Query
          (Plan.Join
             {
               left = Plan.Scan "t1";
               right = Plan.Scan "t0";
               left_keys = [ 0 ];
               right_keys = [ 1 ];
             });
        Case.Exec
          (Plan.Update
             {
               table = "t0";
               pred =
                 Some (Expr.Cmp (Expr.Lt, Expr.Col 0, Expr.Const (V.VInt 10)));
               assignments = [ (2, Expr.Const (V.VInt 424)) ];
             });
        Case.Query
          (Plan.Group_by
             {
               child = Plan.Scan "t0";
               keys = [ (Expr.Col 1, "k") ];
               aggs = [ Relalg.Aggregate.(make Max ~expr:(Expr.Col 2) "m") ];
             });
      ];
    params = [| V.VInt 0; V.VInt 0 |];
  }

let test_shard_case () =
  List.iter
    (fun shards ->
      check_ok
        (Printf.sprintf "pinned shard case over %d shards" shards)
        (Harness.outcome_of (Harness.shards shards) shard_case))
    [ 2; 3 ]

(* A short fresh sweep on the shard axis too. *)
let test_shard_sweep () =
  check_sweep (Harness.shards ~max_rows:60 2) ~seed:9200 ~cases:5

(* ------------------------------------------------------------------ *)
(* Mutation self-check                                                 *)
(* ------------------------------------------------------------------ *)

(* The harness is only trustworthy if it catches bugs: weakening the first
   Lt to Le (the driver's --mutate switch) must diverge on the boundary
   case, and the shrinker must cut the 21-row table to a handful of rows
   while preserving the divergence. *)
let test_mutation_caught () =
  let mutated = Harness.matrix ~mutate:true () in
  match Harness.outcome_of mutated boundary_case with
  | Harness.Ok -> Alcotest.fail "Lt->Le mutation was not detected"
  | Harness.Raised msg -> Alcotest.failf "mutated run raised: %s" msg
  | Harness.Diverged _ as outcome ->
      let minimized =
        Fuzz.Shrink.minimize
          ~failing:(Harness.failure_pred mutated outcome)
          boundary_case
      in
      let n = Case.total_rows minimized in
      Alcotest.(check bool)
        (Printf.sprintf "shrinks below 10 rows (got %d)" n)
        true (n <= 10);
      (* the shrunk case must itself still diverge under the mutation *)
      (match Harness.outcome_of mutated minimized with
      | Harness.Diverged _ -> ()
      | o -> Alcotest.failf "minimized case no longer diverges: %s"
               (outcome_label o))

(* ------------------------------------------------------------------ *)
(* Tracer identity on fuzz cases                                       *)
(* ------------------------------------------------------------------ *)

(* Every sequential engine under every layout mode replays the case once on
   a default hierarchy and once on the reference tracer's ([Memsim_ref]).
   Both must agree with the oracle, run the same number of queries, and
   count every query identically.  Returns the first failure, if any. *)
let tracer_mismatch (c : Case.t) =
  let oracle = Fuzz.Driver.oracle_results c in
  let check engine mode =
    let run hier = Fuzz.Driver.run_combo ~hier ~engine ~mode c ~oracle in
    let fast = run (Memsim.Hierarchy.create ()) in
    let slow = run (Memsim_ref.hierarchy ()) in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Some
            (Printf.sprintf "seed %d %s/%s: %s" c.Case.seed
               (Engines.Engine.name engine) (Case.layout_mode_name mode) s))
        fmt
    in
    match fast.Fuzz.Driver.divergences @ slow.Fuzz.Driver.divergences with
    | d :: _ -> fail "%s" (Format.asprintf "%a" Fuzz.Driver.pp_divergence d)
    | [] ->
        let nf = List.length fast.stats and ns = List.length slow.stats in
        if nf <> ns then fail "%d queries measured vs %d on the reference" nf ns
        else
          let pp = Format.asprintf "%a" Memsim.Stats.pp in
          List.combine fast.stats slow.stats
          |> List.mapi (fun i (a, b) ->
                 if a = b then None
                 else fail "query %d: %s vs reference %s" i (pp a) (pp b))
          |> List.find_map Fun.id
  in
  List.find_map
    (fun mode ->
      List.find_map (fun engine -> check engine mode) Engines.Engine.all)
    Fuzz.Driver.modes

let test_tracer_identity_seeds () =
  List.iter
    (fun seed ->
      match tracer_mismatch (Fuzz.Gen.case seed) with
      | None -> ()
      | Some m -> Alcotest.fail m)
    regression_seeds

(* Fresh generator seeds: QCheck draws new ones on every run and prints the
   random seed that replays them under QCHECK_SEED.  A long run
   (QCHECK_LONG=1) covers 8 * 19 = 152 cases. *)
let qcheck_tracer_identity =
  QCheck.Test.make ~count:8 ~long_factor:19
    ~name:"tracer identity on fresh fuzz seeds"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000_000))
    (fun seed ->
      match tracer_mismatch (Fuzz.Gen.case seed) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* ------------------------------------------------------------------ *)
(* --mutate on every episode axis                                      *)
(* ------------------------------------------------------------------ *)

let contains text sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length text && (String.sub text i n = sub || at (i + 1))
  in
  at 0

(* The boundary case under --mutate, through each episode axis's own fuzz
   loop with the pinned case in place of the generator: every axis must
   diverge, shrink the 21 rows to at most 10, and print a replay line that
   carries the axis's flags. *)
let test_mutate_every_axis () =
  let has_teeth axis flags =
    match
      Harness.fuzz
        { axis with Harness.gen = (fun _ -> boundary_case) }
        ~seed:0 ~cases:1 ()
    with
    | [ ({ Harness.outcome = Harness.Diverged _; _ } as r) ] ->
        let n = Case.total_rows r.Harness.minimized in
        Alcotest.(check bool)
          (Printf.sprintf "%s shrinks to 10 rows or fewer (got %d)" flags n)
          true (n <= 10);
        let line = Printf.sprintf "fuzz %s --seed 0 --cases 1" flags in
        let text = Format.asprintf "%a" (Harness.pp_report axis) r in
        Alcotest.(check bool)
          (Printf.sprintf "report carries `%s`" line)
          true (contains text line)
    | [ r ] -> Alcotest.failf "%s: %s" flags (outcome_label r.Harness.outcome)
    | _ -> Alcotest.failf "%s: the Lt->Le mutation was not detected" flags
  in
  has_teeth (Harness.matrix ~mutate:true ()) "--mutate";
  has_teeth (Harness.advisor ~mutate:true ()) "--advisor --mutate";
  has_teeth (Harness.shards ~mutate:true 2) "--shards 2 --mutate"

let suite =
  Alcotest.test_case "regression seeds replay clean" `Slow test_seed_replays
  :: Alcotest.test_case "fresh seed sweep" `Slow test_fresh_sweep
  :: Alcotest.test_case "pinned boundary case" `Quick test_boundary_case
  :: Alcotest.test_case "pinned compressed case" `Quick test_compressed_case
  :: Alcotest.test_case "pinned advisor case repartitions and stays correct"
       `Quick test_advisor_case
  :: Alcotest.test_case "fresh advisor sweep" `Slow test_advisor_sweep
  :: Alcotest.test_case "pinned shard case over 2 and 3 shards" `Quick
       test_shard_case
  :: Alcotest.test_case "fresh shard sweep" `Slow test_shard_sweep
  :: Alcotest.test_case "Lt->Le mutation caught and shrunk" `Quick
       test_mutation_caught
  :: Helpers.across_engines "boundary case vs oracle" boundary_per_engine
  @ Helpers.across_engines "compressed case vs oracle" compressed_per_engine
  @ [
      Alcotest.test_case "pinned join/sort case over pdsm" `Quick
        test_join_sort_case;
      Alcotest.test_case "tracer identity on regression seeds" `Slow
        test_tracer_identity_seeds;
      QCheck_alcotest.to_alcotest qcheck_tracer_identity;
      Alcotest.test_case "--mutate caught on every episode axis" `Quick
        test_mutate_every_axis;
    ]
