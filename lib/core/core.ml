module Memsim = Memsim
module Storage = Storage
module Relalg = Relalg
module Engines = Engines
module Costmodel = Costmodel
module Layoutopt = Layoutopt
module Workloads = Workloads
module Rng = Mrdb_util.Rng
module Texttab = Mrdb_util.Texttab

module Db = struct
  type t = { cat : Storage.Catalog.t; hier : Memsim.Hierarchy.t option }

  let create ?params ?(simulate = true) () =
    let hier =
      if simulate then Some (Memsim.Hierarchy.create ?params ()) else None
    in
    { cat = Storage.Catalog.create ?hier (); hier }

  let catalog t = t.cat
  let hier t = t.hier

  let create_table t name columns ?layout () =
    let schema = Storage.Schema.make name columns in
    let layout =
      match layout with
      | None -> Storage.Layout.row schema
      | Some groups -> Storage.Layout.of_names schema groups
    in
    ignore (Storage.Catalog.add t.cat schema layout)

  let insert t name values =
    Storage.Write.apply t.cat (Storage.Write.Append { table = name; values })

  let plan_sql t sql = Relalg.Planner.plan t.cat (Relalg.Sql.parse t.cat sql)

  let exec ?(engine = Engines.Engine.Jit) ?(params = [||]) t sql =
    Engines.Engine.run engine t.cat (plan_sql t sql) ~params

  let exec_measured ?(engine = Engines.Engine.Jit) ?(params = [||]) t sql =
    Engines.Engine.run_measured engine t.cat (plan_sql t sql) ~params

  let explain ?params t sql = Obs_explain.render ?params t.cat (plan_sql t sql)

  let set_layout t name groups =
    let rel = Storage.Catalog.find t.cat name in
    let schema = Storage.Relation.schema rel in
    Storage.Catalog.set_layout t.cat name
      (Storage.Layout.of_names schema groups)

  let layout_of t name =
    let rel = Storage.Catalog.find t.cat name in
    Storage.Layout.to_name_groups
      (Storage.Relation.schema rel)
      (Storage.Relation.layout rel)

  let optimize_layout ?(threshold = 0.005) t workload =
    let plans = List.map (fun (sql, freq) -> (plan_sql t sql, freq)) workload in
    let results =
      Layoutopt.Optimizer.optimize
        ~algorithm:(Layoutopt.Optimizer.Bpi threshold)
        t.cat plans
    in
    Layoutopt.Optimizer.apply t.cat results;
    List.map
      (fun (r : Layoutopt.Optimizer.table_result) ->
        (r.Layoutopt.Optimizer.table, layout_of t r.Layoutopt.Optimizer.table))
      results
end

let version = "1.0.0"
