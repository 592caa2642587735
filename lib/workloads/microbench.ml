module V = Storage.Value
module Schema = Storage.Schema
module Layout = Storage.Layout

let domain = 1_000_000

let attr_names =
  [ "A"; "B"; "C"; "D"; "E"; "F"; "G"; "H"; "I"; "J"; "K"; "L"; "M"; "N"; "O"; "P" ]

let schema = Schema.make "R" (List.map (fun n -> (n, V.Int)) attr_names)

let pdsm_layout =
  Layout.of_names schema
    [
      [ "A" ];
      [ "B"; "C"; "D"; "E" ];
      [ "F"; "G"; "H"; "I"; "J"; "K"; "L"; "M"; "N"; "O"; "P" ];
    ]

let build ?hier ~n () =
  let cat = Storage.Catalog.create ?hier () in
  let rel = Storage.Catalog.add cat schema (Layout.row schema) in
  let rng = Mrdb_util.Rng.create 0xF16_3 in
  Storage.Relation.load_int_rows rel ~n (fun ~row dst ->
      ignore row;
      dst.(0) <- Mrdb_util.Rng.int rng domain;
      for i = 1 to 15 do
        dst.(i) <- Mrdb_util.Rng.int rng 1000
      done);
  cat

let predicate =
  Relalg.Expr.Cmp (Relalg.Expr.Lt, Relalg.Expr.Col 0, Relalg.Expr.Param 1)

let plan cat ~sel =
  let logical =
    Relalg.Plan.Group_by
      {
        child = Relalg.Plan.Select (Relalg.Plan.Scan "R", predicate);
        keys = [];
        aggs =
          List.map
            (fun i ->
              Relalg.Aggregate.make Relalg.Aggregate.Sum
                ~expr:(Relalg.Expr.Col i)
                (Printf.sprintf "sum_%s" (List.nth attr_names i)))
            [ 1; 2; 3; 4 ];
      }
  in
  Relalg.Planner.plan
    ~estimate:(fun e -> if e = predicate then Some sel else None)
    ~n_groups:1.0 cat logical

let params ~sel = [| V.VInt (int_of_float (sel *. float_of_int domain)) |]
