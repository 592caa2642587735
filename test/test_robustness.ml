(* Robustness battery: generated SQL across all engines, sensitivity of the
   simulator/cost model to hierarchy parameters, and optimizer guarantees on
   random workloads. *)

module V = Storage.Value
module Engine = Engines.Engine

(* ------------------------------------------------------------------ *)
(* Generated SQL: every engine returns the same rows and nothing crashes *)
(* ------------------------------------------------------------------ *)

let sql_gen =
  QCheck.Gen.(
    let cols = [ "id"; "grp"; "amount" ] in
    let* col = oneofl cols in
    let* op = oneofl [ "<"; "<="; ">"; ">="; "="; "<>" ] in
    let* bound = int_bound 120 in
    let* second_pred = bool in
    let* col2 = oneofl cols in
    let* bound2 = int_bound 120 in
    let* connective = oneofl [ "and"; "or" ] in
    let* shape = int_bound 3 in
    let* limit = int_range 1 20 in
    let where =
      if second_pred then
        Printf.sprintf "where %s %s %d %s %s < %d" col op bound connective col2
          bound2
      else Printf.sprintf "where %s %s %d" col op bound
    in
    let sql =
      match shape with
      | 0 -> Printf.sprintf "select id, amount from t %s order by id" where
      | 1 ->
          Printf.sprintf
            "select grp, count(*) c, sum(amount) s from t %s group by grp \
             order by grp"
            where
      | 2 ->
          Printf.sprintf
            "select count(*) c, min(id) mn, max(id) mx, avg(amount) a from t \
             %s"
            where
      | _ ->
          Printf.sprintf
            "select id %% 5 b, count(*) c from t %s group by b order by c \
             desc, b limit %d"
            where limit
    in
    return sql)

let qcheck_generated_sql_agreement =
  QCheck.Test.make ~count:80 ~name:"generated SQL: all engines agree"
    (QCheck.make sql_gen)
    (fun sql ->
      let cat = Helpers.small_catalog ~n:130 () in
      let results =
        List.map
          (fun e -> Helpers.sorted_rows (Helpers.run_sql ~engine:e cat sql))
          Engine.all
      in
      match results with
      | r :: rest -> List.for_all (fun x -> x = r) rest
      | [] -> true)

let qcheck_generated_sql_on_hybrid_layouts =
  QCheck.Test.make ~count:40
    ~name:"generated SQL: layout changes never change results"
    (QCheck.make QCheck.Gen.(pair sql_gen (int_bound 1000)))
    (fun (sql, seed) ->
      let cat = Helpers.small_catalog ~n:90 () in
      let reference = Helpers.sorted_rows (Helpers.run_sql cat sql) in
      let rng = Mrdb_util.Rng.create seed in
      (* random partitioning of the five attributes *)
      let assignment = Array.init 5 (fun _ -> Mrdb_util.Rng.int rng 3) in
      let groups =
        List.filter_map
          (fun g ->
            let attrs =
              List.filteri (fun a _ -> assignment.(a) = g) [ 0; 1; 2; 3; 4 ]
            in
            match attrs with
            | [] -> None
            | _ ->
                Some
                  (List.filteri (fun a _ -> assignment.(a) = g) [ 0; 1; 2; 3; 4 ]))
          [ 0; 1; 2 ]
      in
      let groups = List.map (fun g -> List.map (fun x -> x) g) groups in
      Storage.Catalog.set_layout cat "t"
        (Storage.Layout.of_indices Helpers.small_schema groups);
      Helpers.sorted_rows (Helpers.run_sql cat sql) = reference)

(* ------------------------------------------------------------------ *)
(* Hierarchy-parameter sensitivity                                     *)
(* ------------------------------------------------------------------ *)

let scan_cycles params n =
  let hier = Memsim.Hierarchy.create ~params () in
  let cat = Storage.Catalog.create ~hier () in
  let rel =
    Storage.Catalog.add cat Helpers.small_schema
      (Storage.Layout.column Helpers.small_schema)
  in
  Helpers.fill_small rel n;
  let plan =
    Relalg.Planner.plan cat (Relalg.Sql.parse cat "select sum(amount) s from t")
  in
  let _, st = Engine.run_measured Engine.Jit cat plan ~params:[||] in
  Memsim.Stats.total_cycles st

let test_memory_latency_sensitivity () =
  let slow =
    { Memsim.Params.nehalem with Memsim.Params.memory_latency = 200 }
  in
  Alcotest.(check bool) "slower memory, higher cost" true
    (scan_cycles slow 20_000 > scan_cycles Memsim.Params.nehalem 20_000)

let test_tiny_cache_sensitivity () =
  (* shrink every cache: random-access workloads must get more expensive *)
  let tiny =
    Memsim.Params.scaled ~l1:1024 ~l2:4096 ~l3:16384 Memsim.Params.nehalem
  in
  let probe params =
    let hier = Memsim.Hierarchy.create ~params () in
    let rng = Mrdb_util.Rng.create 5 in
    for _ = 1 to 50_000 do
      Memsim.Hierarchy.read hier
        ~addr:(Mrdb_util.Rng.int rng (1 lsl 20) * 8)
        ~width:8
    done;
    (Memsim.Hierarchy.stats hier).Memsim.Stats.mem_cycles
  in
  Alcotest.(check bool) "smaller caches, more cycles" true
    (probe tiny > probe Memsim.Params.nehalem)

let test_cost_model_follows_params () =
  let atom = Costmodel.Pattern.rr_acc ~n:1_000_000 ~w:64 ~r:100_000 () in
  let base = Costmodel.Cost_function.cost Memsim.Params.nehalem atom in
  let slow =
    { Memsim.Params.nehalem with Memsim.Params.memory_latency = 120 }
  in
  let slow_cost = Costmodel.Cost_function.cost slow atom in
  Alcotest.(check bool) "model scales with memory latency" true
    (slow_cost > 2.0 *. base)

(* ------------------------------------------------------------------ *)
(* Optimizer guarantees                                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_optimizer_never_worse =
  QCheck.Test.make ~count:15
    ~name:"BPi layout never estimated worse than row or column"
    (QCheck.make QCheck.Gen.(pair (int_bound 1000) (int_range 1 3)))
    (fun (seed, n_queries) ->
      let cat = Helpers.small_catalog ~n:400 () in
      let rng = Mrdb_util.Rng.create seed in
      let sqls =
        List.init n_queries (fun _ ->
            let col = Mrdb_util.Rng.choose rng [| "id"; "grp"; "amount" |] in
            let proj = Mrdb_util.Rng.choose rng [| "score"; "name"; "amount" |] in
            Printf.sprintf "select %s from t where %s < %d" proj col
              (Mrdb_util.Rng.int rng 100))
      in
      let wl =
        List.map
          (fun sql -> (Relalg.Planner.plan cat (Relalg.Sql.parse cat sql), 1.0))
          sqls
      in
      let r = Layoutopt.Optimizer.optimize_table cat "t" wl in
      r.Layoutopt.Optimizer.estimated_cost
      <= r.Layoutopt.Optimizer.row_cost +. 1e-6
      && r.Layoutopt.Optimizer.estimated_cost
         <= r.Layoutopt.Optimizer.column_cost +. 1e-6)

(* updates interleaved with reads stay consistent on every engine *)
let test_update_read_interleaving () =
  List.iter
    (fun engine ->
      let cat = Helpers.small_catalog ~n:40 () in
      ignore
        (Helpers.run_sql ~engine cat "update t set amount = amount * 2 where grp = 1");
      ignore
        (Helpers.run_sql ~engine cat "update t set amount = amount + 1 where grp = 1");
      let r =
        Helpers.run_sql ~engine cat
          "select sum(amount) s from t where grp = 1"
      in
      let expected =
        List.init 40 Fun.id
        |> List.filter (fun i -> i mod 7 = 1)
        |> List.fold_left (fun acc i -> acc + ((i * 3 mod 101) * 2) + 1) 0
      in
      Helpers.check_rows
        (Printf.sprintf "interleaved updates [%s]" (Engine.name engine))
        [ [| V.VInt expected |] ]
        r.Engines.Runtime.rows)
    Engine.all

(* auxiliary surfaces (codegen, explain) must accept anything the planner
   produces *)
let qcheck_codegen_and_explain_total =
  QCheck.Test.make ~count:60
    ~name:"codegen and explain never raise on generated SQL"
    (QCheck.make sql_gen)
    (fun sql ->
      let cat = Helpers.small_catalog ~n:50 () in
      let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
      let emitted =
        match Engines.C_emitter.emit_unit cat plan ~params:[||] with
        | Ok info -> String.length info.Engines.C_emitter.source > 0
        | Error reason -> String.length reason > 0
      in
      let explanation = Obs_explain.render cat plan in
      emitted && String.length explanation > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_generated_sql_agreement;
    QCheck_alcotest.to_alcotest qcheck_codegen_and_explain_total;
    QCheck_alcotest.to_alcotest qcheck_generated_sql_on_hybrid_layouts;
    Alcotest.test_case "memory latency sensitivity" `Quick
      test_memory_latency_sensitivity;
    Alcotest.test_case "tiny cache sensitivity" `Quick test_tiny_cache_sensitivity;
    Alcotest.test_case "cost model follows params" `Quick
      test_cost_model_follows_params;
    QCheck_alcotest.to_alcotest qcheck_optimizer_never_worse;
    Alcotest.test_case "update/read interleaving" `Quick
      test_update_read_interleaving;
  ]
