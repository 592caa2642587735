(* The differential driver.  One case fans out into the full matrix:

     engine (volcano/bulk/vectorized/hyrise/jit + parallel + compiled) ×
     layout (NSM / DSM / the case's random PDSM / compressed)

   Every combination replays the whole episode against a fresh catalog and
   must (a) produce the oracle's result multiset for every query and the
   oracle's final table contents, (b) satisfy the metamorphic invariants —
   truth-preserving predicate rewrites keep results, and WAL + crash
   recovery reproduces the live catalog digest.

   Every run — a matrix combination, the metamorphic and recovery replays,
   the advisor and shard axes — goes through [replay]: each builds its
   catalog or cluster and passes one closure that executes a statement.

   [mutate] injects a deliberate comparison-weakening bug (Lt becomes Le)
   into one combination; the harness uses it to prove the oracle actually
   has teeth. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Plan = Relalg.Plan
module Expr = Relalg.Expr
module Engine = Engines.Engine
module Runtime = Engines.Runtime

type divergence = {
  combo : string; (* e.g. "bulk/dsm" *)
  statement : int;
      (* episode index (on the txn axis, the client's transaction index),
         or -1 for end-of-episode checks *)
  detail : string;
}

let pp_divergence ppf d =
  Format.fprintf ppf "[%s] stmt %d: %s" d.combo d.statement d.detail

(* ------------------------------------------------------------------ *)
(* Result comparison (multisets, with float tolerance)                 *)
(* ------------------------------------------------------------------ *)

(* Parallel aggregation may re-associate float sums, so float equality is
   relative-epsilon; everything else is exact. *)
let value_eq a b =
  match (a, b) with
  | V.VFloat x, V.VFloat y ->
      x = y
      || (Float.is_nan x && Float.is_nan y)
      || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | _ -> V.compare a b = 0

let row_eq a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i va -> if not (value_eq va b.(i)) then ok := false) a;
  !ok

let compare_rows_total (a : V.t array) (b : V.t array) =
  let c = compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else begin
    let r = ref 0 in
    (try
       Array.iteri
         (fun i va ->
           let c = V.compare va b.(i) in
           if c <> 0 then begin
             r := c;
             raise Exit
           end)
         a
     with Exit -> ());
    !r
  end

let sort_multiset rows = List.sort compare_rows_total rows

let show_row row =
  "("
  ^ String.concat ", " (Array.to_list (Array.map V.to_display row))
  ^ ")"

(* [None] if equal as multisets, otherwise a human-readable discrepancy *)
let multiset_mismatch ~expected ~got =
  let e = sort_multiset expected and g = sort_multiset got in
  let ne = List.length e and ng = List.length g in
  if ne <> ng then
    Some (Printf.sprintf "cardinality: expected %d rows, got %d" ne ng)
  else
    let rec go i e g =
      match (e, g) with
      | [], [] -> None
      | re :: e', rg :: g' ->
          if row_eq re rg then go (i + 1) e' g'
          else
            Some
              (Printf.sprintf "row %d (sorted): expected %s, got %s" i
                 (show_row re) (show_row rg))
      | _ -> Some "length mismatch"
    in
    go 0 e g

let columns_mismatch ~(expected : string array) ~(got : string array) =
  if expected <> got then
    Some
      (Printf.sprintf "columns: expected [%s], got [%s]"
         (String.concat "; " (Array.to_list expected))
         (String.concat "; " (Array.to_list got)))
  else None

(* ------------------------------------------------------------------ *)
(* Catalog construction                                                *)
(* ------------------------------------------------------------------ *)

(* Adds and loads the case's tables into [cat].  Each table is one
   transaction, so a catalog with a durability observer logs the load;
   without one, [in_txn] is just the call. *)
let load_tables cat (c : Case.t) mode =
  List.iter
    (fun (tab : Case.table) ->
      let schema = Case.schema_of_table tab in
      let layout = Case.layout_of_table tab mode in
      let rows = Array.of_list tab.Case.rows in
      let encodings, layout =
        match mode with
        | Case.Comp ->
            (* the advisor's plan over the generated rows; Sparse/RLE
               columns move to singleton partitions *)
            let encs = Storage.Compress.plan_rows schema rows in
            (encs, Storage.Compress.singleton_layout schema layout encs)
        | _ -> ([], layout)
      in
      Catalog.in_txn cat (fun () ->
          ignore (Catalog.add ~encodings cat schema layout);
          if Array.length rows > 0 then
            Storage.Write.apply cat
              (Storage.Write.Load { table = tab.Case.tname; rows })))
    c.Case.tables

let build_catalog ?hier (c : Case.t) mode =
  let cat = Catalog.create ?hier () in
  load_tables cat c mode;
  cat

let catalog_rows cat name =
  let rel = Catalog.find cat name in
  List.init (Relation.nrows rel) (Relation.get_tuple rel)

(* ------------------------------------------------------------------ *)
(* Mutation injection (the harness self-test)                          *)
(* ------------------------------------------------------------------ *)

let rec weaken_expr e =
  match e with
  | Expr.Cmp (Expr.Lt, a, b) -> Some (Expr.Cmp (Expr.Le, a, b))
  | Expr.Cmp _ | Expr.Like _ | Expr.Col _ | Expr.Param _ | Expr.Const _
  | Expr.IsNull _ | Expr.Arith _ ->
      None
  | Expr.Not e' -> Option.map (fun w -> Expr.Not w) (weaken_expr e')
  | Expr.And es ->
      Option.map (fun ws -> Expr.And ws) (weaken_first es)
  | Expr.Or es -> Option.map (fun ws -> Expr.Or ws) (weaken_first es)

and weaken_first = function
  | [] -> None
  | e :: rest -> (
      match weaken_expr e with
      | Some w -> Some (w :: rest)
      | None -> Option.map (fun ws -> e :: ws) (weaken_first rest))

(* weaken the first strict comparison found in a Select predicate *)
let rec weaken_plan = function
  | Plan.Select (child, pred) -> (
      match weaken_expr pred with
      | Some w -> Some (Plan.Select (child, w))
      | None ->
          Option.map (fun c -> Plan.Select (c, pred)) (weaken_plan child))
  | Plan.Scan _ | Plan.Insert _ | Plan.Update _ -> None
  | Plan.Project (child, exprs) ->
      Option.map (fun c -> Plan.Project (c, exprs)) (weaken_plan child)
  | Plan.Join ({ left; right; _ } as j) -> (
      match weaken_plan left with
      | Some l -> Some (Plan.Join { j with left = l })
      | None -> Option.map (fun r -> Plan.Join { j with right = r }) (weaken_plan right))
  | Plan.Group_by ({ child; _ } as g) ->
      Option.map (fun c -> Plan.Group_by { g with child = c }) (weaken_plan child)
  | Plan.Sort ({ child; _ } as s) ->
      Option.map (fun c -> Plan.Sort { s with child = c }) (weaken_plan child)
  | Plan.Limit (child, n) ->
      Option.map (fun c -> Plan.Limit (c, n)) (weaken_plan child)

(* ------------------------------------------------------------------ *)
(* The episode loop                                                    *)
(* ------------------------------------------------------------------ *)

let oracle_results (c : Case.t) =
  let o = Oracle.init c in
  let per_stmt =
    List.map (fun stmt -> Oracle.run_statement o stmt) c.Case.episode
  in
  let dumps =
    List.map (fun (t : Case.table) -> Oracle.dump o t.Case.tname) c.Case.tables
  in
  (per_stmt, dumps)

(* The one loop that runs an episode.  [exec ~query plan] executes one
   statement on the run under test and returns its result; it is called
   once per statement, in episode order, with [query] false for DML
   (whose result is ignored).  [mutate] weakens each query first.  Answers
   are compared with the oracle's, then every table's final [rows], and
   [finish ()] returns the failures of checks with no oracle counterpart.
   Anything that raises diverges where it raised; [replay] itself does
   not raise. *)
let replay ?(mutate = false) ~combo ~exec ~rows ?(finish = fun () -> [])
    (c : Case.t) ~oracle:(per_stmt_oracle, dumps_oracle) =
  let divergences = ref [] in
  let diverge statement detail =
    divergences := { combo; statement; detail } :: !divergences
  in
  let raised e = "exception: " ^ Printexc.to_string e in
  List.iteri
    (fun i (stmt, oracle_r) ->
      try
        match stmt with
        | Case.Exec logical -> ignore (exec ~query:false logical)
        | Case.Query logical ->
            let logical =
              if mutate then Option.value (weaken_plan logical) ~default:logical
              else logical
            in
            let r = exec ~query:true logical in
            let expected = Option.get oracle_r in
            Option.iter (diverge i)
              (columns_mismatch ~expected:expected.Oracle.columns
                 ~got:r.Runtime.columns);
            Option.iter (diverge i)
              (multiset_mismatch ~expected:expected.Oracle.rows
                 ~got:r.Runtime.rows)
      with e -> diverge i (raised e))
    (List.combine c.Case.episode per_stmt_oracle);
  List.iter2
    (fun (tab : Case.table) (dump : Oracle.result) ->
      let name = tab.Case.tname in
      match multiset_mismatch ~expected:dump.Oracle.rows ~got:(rows name) with
      | Some d -> diverge (-1) (Printf.sprintf "final state of %s: %s" name d)
      | None -> ()
      | exception e ->
          diverge (-1) (Printf.sprintf "final state of %s: %s" name (raised e)))
    c.Case.tables dumps_oracle;
  (match finish () with
  | ds -> divergences := List.rev_append ds !divergences
  | exception e -> diverge (-1) (raised e));
  List.rev !divergences

(* ------------------------------------------------------------------ *)
(* One combination of the matrix                                       *)
(* ------------------------------------------------------------------ *)

type combo_outcome = {
  divergences : divergence list;
  stats : Memsim.Stats.t list; (* per-query counters, in episode order *)
}

(* Run the whole episode on a fresh catalog traced by [hier] (a fresh
   hierarchy by default).  [domains] > 1 exercises the morsel-parallel path;
   [mutate] injects the Lt->Le bug into query plans. *)
let run_combo ?mutate ?(domains = 1) ?morsel_size
    ?(hier = Memsim.Hierarchy.create ()) ~engine ~mode (c : Case.t) ~oracle =
  let combo =
    Printf.sprintf "%s%s/%s" (Engine.name engine)
      (if domains > 1 then Printf.sprintf "(x%d)" domains else "")
      (Case.layout_mode_name mode)
  in
  let cat = build_catalog ~hier c mode in
  let params = c.Case.params in
  let stats = ref [] in
  let exec ~query logical =
    let phys = Relalg.Planner.plan cat logical in
    if not query then Engine.run ~domains ?morsel_size engine cat phys ~params
    else begin
      let r, st =
        Engine.run_measured ~domains ?morsel_size engine cat phys ~params
      in
      if domains = 1 then stats := st :: !stats;
      r
    end
  in
  let divergences =
    replay ?mutate ~combo ~exec ~rows:(catalog_rows cat) c ~oracle
  in
  { divergences; stats = List.rev !stats }

(* ------------------------------------------------------------------ *)
(* Metamorphic predicate rewrites                                      *)
(* ------------------------------------------------------------------ *)

let rewrites =
  [
    ("not-not", fun p -> Expr.Not (Expr.Not p));
    ("and-dup", fun p -> Expr.And [ p; p ]);
    ("or-dup", fun p -> Expr.Or [ p; p ]);
    ("and-true", fun p -> Expr.And [ p; Expr.Const (V.VBool true) ]);
  ]

let rec rewrite_preds f = function
  | Plan.Select (child, pred) -> Plan.Select (rewrite_preds f child, f pred)
  | Plan.Scan _ as p -> p
  | Plan.Project (child, exprs) -> Plan.Project (rewrite_preds f child, exprs)
  | Plan.Join ({ left; right; _ } as j) ->
      Plan.Join
        { j with left = rewrite_preds f left; right = rewrite_preds f right }
  | Plan.Group_by ({ child; _ } as g) ->
      Plan.Group_by { g with child = rewrite_preds f child }
  | Plan.Sort ({ child; _ } as s) ->
      Plan.Sort { s with child = rewrite_preds f child }
  | Plan.Limit (child, n) -> Plan.Limit (rewrite_preds f child, n)
  | (Plan.Insert _ | Plan.Update _) as p -> p

let rec has_select = function
  | Plan.Select _ -> true
  | Plan.Scan _ | Plan.Insert _ | Plan.Update _ -> false
  | Plan.Project (child, _) | Plan.Limit (child, _) -> has_select child
  | Plan.Join { left; right; _ } -> has_select left || has_select right
  | Plan.Group_by { child; _ } | Plan.Sort { child; _ } -> has_select child

(* Replays the episode on Bulk over the case's PDSM layout; every query
   with a Select also runs under each truth-preserving rewrite, which must
   not change the result multiset.  Queries are side-effect free, so the
   replays between DML are safe. *)
let run_metamorphic (c : Case.t) ~oracle =
  let cat = build_catalog c Case.Pdsm in
  let run logical =
    Engine.run Engine.Bulk cat
      (Relalg.Planner.plan cat logical)
      ~params:c.Case.params
  in
  let statement = ref (-1) and found = ref [] in
  let exec ~query logical =
    incr statement;
    let base = run logical in
    if query && has_select logical then
      List.iter
        (fun (rname, f) ->
          let r = run (rewrite_preds f logical) in
          match
            multiset_mismatch ~expected:base.Runtime.rows ~got:r.Runtime.rows
          with
          | Some detail ->
              let combo = "metamorphic/" ^ rname in
              found := { combo; statement = !statement; detail } :: !found
          | None -> ())
        rewrites;
    base
  in
  replay ~combo:"metamorphic" ~exec ~rows:(catalog_rows cat)
    ~finish:(fun () -> List.rev !found)
    c ~oracle

(* ------------------------------------------------------------------ *)
(* WAL + crash-recovery replay                                         *)
(* ------------------------------------------------------------------ *)

(* The episode runs on Jit over a catalog that logs to a memory-backed
   fault store; its answers and final state must match the oracle, and
   recovering the store must reproduce the live catalog digest. *)
let run_recovery (c : Case.t) ~oracle =
  let module D = Durability.Durable in
  let module Snapshot = Durability.Snapshot in
  let env = Durability.Faultio.memory () in
  let cat = Catalog.create () in
  let d = D.attach env cat in
  load_tables cat c Case.Pdsm;
  let exec ~query:_ logical =
    Engine.run Engine.Jit cat
      (Relalg.Planner.plan cat logical)
      ~params:c.Case.params
  in
  let finish () =
    let live = Snapshot.digest cat in
    D.detach d;
    let recovered =
      Snapshot.digest (Durability.Recover.run env).Durability.Recover.cat
    in
    if live = recovered then []
    else
      [
        {
          combo = "recovery";
          statement = -1;
          detail =
            Printf.sprintf "catalog digest after replay: live %s <> recovered %s"
              live recovered;
        };
      ]
  in
  replay ~combo:"recovery" ~exec ~rows:(catalog_rows cat) ~finish c ~oracle

(* ------------------------------------------------------------------ *)
(* Online advisor axis                                                 *)
(* ------------------------------------------------------------------ *)

let m_advisor_repartitions =
  Obs.Metrics.counter "mrdb_fuzz_advisor_repartitions_total"
    ~help:"Mid-episode repartitions performed across advisor fuzz cases"

(* Replay the episode once with the layout advisor in the loop: every
   statement is re-planned against the current catalog (the layout may have
   just changed), executed on the Jit engine, observed by the advisor, and
   checked against the oracle.  The advisor is deliberately trigger-happy
   (tiny window, any positive projected saving repartitions), so layout
   changes land mid-episode between checked statements — the property under
   test is that reorganization never changes answers or final table
   contents.  Every repartition bumps [m_advisor_repartitions], so callers
   can report whether the axis was exercised. *)
let run_advisor ?mutate (c : Case.t) ~oracle =
  let cat = build_catalog c Case.Pdsm in
  let adv =
    Layoutopt.Advisor.create ~window:8 ~check_every:2 ~min_benefit:0.0
      ~horizon:1e9 cat
  in
  let exec ~query:_ logical =
    let phys = Relalg.Planner.plan cat logical in
    let r = Engine.run Engine.Jit cat phys ~params:c.Case.params in
    Obs.Metrics.add m_advisor_repartitions
      (List.length (Layoutopt.Advisor.observe adv phys));
    r
  in
  replay ?mutate ~combo:"advisor" ~exec ~rows:(catalog_rows cat) c ~oracle

(* ------------------------------------------------------------------ *)
(* The full matrix for one case                                        *)
(* ------------------------------------------------------------------ *)

let modes = [ Case.Nsm; Case.Dsm; Case.Pdsm; Case.Comp ]

let run_case ?(mutate = false) ?(recovery = true) (c : Case.t) =
  let oracle = oracle_results c in
  let divergences = ref [] in
  let add ds = divergences := !divergences @ ds in
  List.iter
    (fun mode ->
      List.iter
        (fun engine ->
          (* the mutation only targets one combination: proving the harness
             notices a single buggy engine is exactly the point *)
          let mutate_here =
            mutate && engine = Engine.Bulk && mode = Case.Nsm
          in
          add (run_combo ~mutate:mutate_here ~engine ~mode c ~oracle).divergences)
        Engine.all;
      (* morsel-driven parallel execution over the same layouts; a small
         morsel size forces real multi-morsel merges even on tiny tables *)
      let par =
        run_combo ~domains:2 ~morsel_size:16 ~engine:Engine.Jit ~mode c ~oracle
      in
      add par.divergences;
      (* compiled pipelines against the same oracle on a bounded mode
         subset: Nsm and Pdsm (the partially decomposed layouts the IP
         advisor picks) run real native code, Comp (encoded relations) and
         every unsupported shape exercise the in-engine Jit fallback *)
      if mode = Case.Nsm || mode = Case.Pdsm || mode = Case.Comp then
        add (run_combo ~engine:Engine.Compiled ~mode c ~oracle).divergences;
      if mode = Case.Nsm then begin
        let comp_par =
          run_combo ~domains:2 ~morsel_size:16 ~engine:Engine.Compiled ~mode c
            ~oracle
        in
        add comp_par.divergences
      end)
    modes;
  add (run_metamorphic c ~oracle);
  if recovery then add (run_recovery c ~oracle);
  !divergences

(* ------------------------------------------------------------------ *)
(* The sharded axis                                                    *)
(* ------------------------------------------------------------------ *)

(* `fuzz --shards N`: the episode replays over an N-shard durable cluster —
   every query through the distributed executor (gather, partial
   aggregation, cost-chosen shuffle/broadcast joins), every DML statement
   through two-phase commit.  Answers and the per-table shard unions must
   match the oracle, and recovering every node from its durable state must
   reproduce the live per-shard digests.

   Plans are made against a shadow single-node catalog that replays the
   same episode, so the sharded run executes exactly the plans a
   single-node run would. *)

let run_shard ?mutate ~shards ~engine ~mode (c : Case.t) ~oracle =
  let combo =
    Printf.sprintf "shard(x%d)/%s/%s" shards (Engine.name engine)
      (Case.layout_mode_name mode)
  in
  let pcat = build_catalog c mode in
  let cl = Shard.Cluster.create ~durable:true ~shards pcat in
  let params = c.Case.params in
  let exec ~query logical =
    let phys = Relalg.Planner.plan pcat logical in
    let r = Shard.Exec.run ~engine ~params cl phys in
    (* keep the planning catalog current *)
    if not query then ignore (Engine.run engine pcat phys ~params);
    r
  in
  (* durability: recover every node from its durable state; the recovered
     digests must equal the live ones *)
  let finish () =
    let live = Shard.Cluster.digests cl in
    let envs =
      Array.map
        (fun (nd : Shard.Cluster.node) -> nd.Shard.Cluster.env)
        (Shard.Cluster.nodes cl)
    in
    let rc = Shard.Recovery.recover_cluster envs (Shard.Cluster.coord_env cl) in
    List.mapi
      (fun k digest ->
        let res = rc.Shard.Recovery.results.(k) in
        if digest = Durability.Snapshot.digest res.Durability.Recover.cat then
          None
        else
          let detail =
            Printf.sprintf "shard %d: digest after recovery differs" k
          in
          Some { combo; statement = -1; detail })
      live
    |> List.filter_map Fun.id
  in
  let divergences =
    replay ?mutate ~combo ~exec ~rows:(Shard.Cluster.table_rows cl) ~finish c
      ~oracle
  in
  Shard.Cluster.close cl;
  divergences

(* All shard combos of one case: both layout extremes and two engines keep
   the axis cheap enough to run inside the main loop.  [mutate] weakens the
   Bulk combination only, as on the matrix. *)
let run_case_shard ?(mutate = false) ~shards (c : Case.t) =
  let oracle = oracle_results c in
  List.concat_map
    (fun (engine, mode) ->
      run_shard ~mutate:(mutate && engine = Engine.Bulk) ~shards ~engine ~mode
        c ~oracle)
    [ (Engine.Jit, Case.Nsm); (Engine.Bulk, Case.Dsm) ]
