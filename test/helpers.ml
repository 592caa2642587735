(* Shared fixtures for the test suite. *)

module V = Storage.Value

let value_testable =
  Alcotest.testable Storage.Value.pp Storage.Value.equal

let row_testable = Alcotest.array value_testable

let check_rows = Alcotest.check (Alcotest.list row_testable)

(* A small mixed-type table with deterministic contents. *)
let small_schema =
  Storage.Schema.make "t"
    [
      ("id", V.Int);
      ("grp", V.Int);
      ("amount", V.Int);
      ("name", V.Varchar 12);
      ("score", V.Float);
    ]

let small_row row =
  [|
    V.VInt row;
    V.VInt (row mod 7);
    V.VInt (row * 3 mod 101);
    V.VStr (Printf.sprintf "name%03d" (row mod 50));
    V.VFloat (float_of_int (row mod 13) /. 4.0);
  |]

let fill_small rel n = Storage.Relation.load rel ~n (fun ~row -> small_row row)

let small_catalog ?(n = 500) ?layout () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let layout =
    match layout with
    | Some groups -> Storage.Layout.of_names small_schema groups
    | None -> Storage.Layout.row small_schema
  in
  let rel = Storage.Catalog.add cat small_schema layout in
  fill_small rel n;
  cat

(* t(a int not null, b int null) holding (1,10) (2,20) (3,NULL) (4,40):
   [update t set a = b] writes rows 0 and 1, then cannot write row 2. *)
let nullable_catalog ?hier () =
  let schema =
    Storage.Schema.make_nullable "t" [ ("a", V.Int, false); ("b", V.Int, true) ]
  in
  let cat = Storage.Catalog.create ?hier () in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  List.iter
    (fun row -> ignore (Storage.Relation.append rel row))
    [
      [| V.VInt 1; V.VInt 10 |];
      [| V.VInt 2; V.VInt 20 |];
      [| V.VInt 3; V.Null |];
      [| V.VInt 4; V.VInt 40 |];
    ];
  cat

let column cat table attr =
  let rel = Storage.Catalog.find cat table in
  List.init (Storage.Relation.nrows rel) (fun tid ->
      Storage.Relation.get rel tid attr)

(* A two-table catalog for join tests. *)
let join_catalog ?(n_orders = 300) ?(n_customers = 40) () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let cust_schema =
    Storage.Schema.make "cust" [ ("cid", V.Int); ("region", V.Varchar 8) ]
  in
  let ord_schema =
    Storage.Schema.make "ord"
      [ ("oid", V.Int); ("ocid", V.Int); ("total", V.Int) ]
  in
  let cust = Storage.Catalog.add cat cust_schema (Storage.Layout.row cust_schema) in
  let ord = Storage.Catalog.add cat ord_schema (Storage.Layout.row ord_schema) in
  Storage.Relation.load cust ~n:n_customers (fun ~row ->
      [| V.VInt row; V.VStr (Printf.sprintf "r%d" (row mod 4)) |]);
  Storage.Relation.load ord ~n:n_orders (fun ~row ->
      [| V.VInt row; V.VInt (row mod n_customers); V.VInt (row mod 97) |]);
  cat

(* The engine-matrix runner: one Alcotest case per execution engine, named
   "<name> [<engine>]".  Shared by the engine, parallel, tracefast and fuzz
   corpus suites instead of each rolling its own loop over [Engine.all]. *)
let across_engines ?(speed = `Quick) name f =
  List.map
    (fun e ->
      Alcotest.test_case
        (Printf.sprintf "%s [%s]" name (Engines.Engine.name e))
        speed (f e))
    Engines.Engine.all

(* inline variant for assertions that loop over engines inside one case *)
let iter_engines f = List.iter f Engines.Engine.all

let run_sql ?(engine = Engines.Engine.Jit) ?(params = [||]) cat sql =
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  Engines.Engine.run engine cat plan ~params

let sorted_rows (r : Engines.Runtime.result) =
  List.sort compare r.Engines.Runtime.rows
