(* Tests for CSV import/export. *)

module V = Storage.Value
module Csv = Storage.Csv

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_export_import_roundtrip () =
  let cat = Helpers.small_catalog ~n:50 () in
  let rel = Storage.Catalog.find cat "t" in
  let path = tmp "mrdb_roundtrip.csv" in
  Csv.export rel path;
  (* import into a second, empty catalog with the same schema *)
  let cat2 = Helpers.small_catalog ~n:0 () in
  let n = Csv.import cat2 ~table:"t" path in
  Alcotest.(check int) "row count" 50 n;
  let rel2 = Storage.Catalog.find cat2 "t" in
  Helpers.check_rows "identical tuples"
    (List.init 50 (Storage.Relation.get_tuple rel))
    (List.init 50 (Storage.Relation.get_tuple rel2));
  Sys.remove path

let test_quoting () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let schema =
    Storage.Schema.make "q" [ ("s", V.Varchar 32); ("x", V.Int) ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  ignore (Storage.Relation.append rel [| V.VStr "a,b"; V.VInt 1 |]);
  ignore (Storage.Relation.append rel [| V.VStr "say \"hi\""; V.VInt 2 |]);
  let path = tmp "mrdb_quote.csv" in
  Csv.export rel path;
  let cat2 = Storage.Catalog.create ~hier:(Memsim.Hierarchy.create ()) () in
  ignore (Storage.Catalog.add cat2 schema (Storage.Layout.row schema));
  ignore (Csv.import cat2 ~table:"q" path);
  let rel2 = Storage.Catalog.find cat2 "q" in
  Alcotest.(check Helpers.value_testable) "comma survives" (V.VStr "a,b")
    (Storage.Relation.get rel2 0 0);
  Alcotest.(check Helpers.value_testable) "quotes survive" (V.VStr "say \"hi\"")
    (Storage.Relation.get rel2 1 0);
  Sys.remove path

let test_null_roundtrip () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let schema =
    Storage.Schema.make_nullable "nl" [ ("a", V.Int, false); ("b", V.Int, true) ]
  in
  let rel = Storage.Catalog.add cat schema (Storage.Layout.row schema) in
  ignore (Storage.Relation.append rel [| V.VInt 1; V.Null |]);
  ignore (Storage.Relation.append rel [| V.VInt 2; V.VInt 5 |]);
  let path = tmp "mrdb_null.csv" in
  Csv.export rel path;
  let cat2 = Storage.Catalog.create () in
  ignore (Storage.Catalog.add cat2 schema (Storage.Layout.row schema));
  ignore (Csv.import cat2 ~table:"nl" path);
  let rel2 = Storage.Catalog.find cat2 "nl" in
  Alcotest.(check Helpers.value_testable) "null preserved" V.Null
    (Storage.Relation.get rel2 0 1);
  Sys.remove path

let test_import_column_subset_reorder () =
  let cat = Helpers.small_catalog ~n:0 () in
  let path = tmp "mrdb_subset.csv" in
  let oc = open_out path in
  output_string oc "score,id,grp,amount,name\n0.5,7,1,2,hello\n";
  close_out oc;
  ignore (Csv.import cat ~table:"t" path);
  let rel = Storage.Catalog.find cat "t" in
  Alcotest.(check Helpers.row_testable) "reordered columns land correctly"
    [| V.VInt 7; V.VInt 1; V.VInt 2; V.VStr "hello"; V.VFloat 0.5 |]
    (Storage.Relation.get_tuple rel 0);
  Sys.remove path

let test_import_maintains_indexes () =
  let cat = Helpers.small_catalog ~n:10 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let path = tmp "mrdb_idx.csv" in
  let oc = open_out path in
  output_string oc "id,grp,amount,name,score\n500,1,2,x,0.0\n";
  close_out oc;
  ignore (Csv.import cat ~table:"t" path);
  let rel = Storage.Catalog.find cat "t" in
  match Storage.Catalog.find_index cat "t" ~attrs:[ 0 ] with
  | Some idx ->
      Alcotest.(check (list int)) "imported row indexed" [ 10 ]
        (Storage.Index.lookup_eq idx rel [ V.VInt 500 ])
  | None -> Alcotest.fail "index missing"

let test_import_new_inference () =
  let path = tmp "mrdb_infer.csv" in
  let oc = open_out path in
  output_string oc "k,label,ratio,flag,maybe\n1,abc,1.5,true,10\n2,defg,2.5,false,\n";
  close_out oc;
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let rel = Csv.import_new cat ~name:"inferred" path in
  let schema = Storage.Relation.schema rel in
  let attr i = Storage.Schema.attr schema i in
  Alcotest.(check bool) "k is int" true ((attr 0).Storage.Schema.ty = V.Int);
  Alcotest.(check bool) "ratio is float" true
    ((attr 2).Storage.Schema.ty = V.Float);
  Alcotest.(check bool) "flag is bool" true ((attr 3).Storage.Schema.ty = V.Bool);
  Alcotest.(check bool) "maybe nullable" true (attr 4).Storage.Schema.nullable;
  Alcotest.(check int) "rows loaded" 2 (Storage.Relation.nrows rel);
  Alcotest.(check Helpers.value_testable) "null in row 2" V.Null
    (Storage.Relation.get rel 1 4);
  (* and SQL runs over the imported table *)
  let r =
    Helpers.run_sql cat "select sum(k) s from inferred where flag = true"
  in
  Helpers.check_rows "query works" [ [| V.VInt 1 |] ] r.Engines.Runtime.rows;
  Sys.remove path

let test_import_errors () =
  let cat = Helpers.small_catalog ~n:0 () in
  let path = tmp "mrdb_bad.csv" in
  let oc = open_out path in
  output_string oc "id,bogus\n1,2\n";
  close_out oc;
  (match Csv.import cat ~table:"t" path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on unknown column");
  let oc = open_out path in
  output_string oc "id,grp\n1\n";
  close_out oc;
  (match Csv.import cat ~table:"t" path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on arity mismatch");
  (* a malformed row after good ones: the import appends nothing *)
  let oc = open_out path in
  output_string oc "id,grp,amount,name,score\n1,0,0,a,0.5\nx,0,0,b,0.5\n";
  close_out oc;
  (match Csv.import cat ~table:"t" path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on a malformed row");
  Alcotest.(check int) "no prefix appended" 0
    (Storage.Relation.nrows (Storage.Catalog.find cat "t"));
  Sys.remove path

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_export_import_roundtrip;
    Alcotest.test_case "quoting" `Quick test_quoting;
    Alcotest.test_case "null roundtrip" `Quick test_null_roundtrip;
    Alcotest.test_case "column subset/reorder" `Quick
      test_import_column_subset_reorder;
    Alcotest.test_case "index maintenance" `Quick test_import_maintains_indexes;
    Alcotest.test_case "type inference" `Quick test_import_new_inference;
    Alcotest.test_case "import errors" `Quick test_import_errors;
  ]
