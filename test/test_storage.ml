(* Tests for the storage layer: values, schemas, layouts, buffers,
   relations, repartitioning. *)

module V = Storage.Value
module Schema = Storage.Schema
module Layout = Storage.Layout
module Buffer = Storage.Buffer
module Relation = Storage.Relation

let test_value_widths () =
  Alcotest.(check int) "int" 8 (V.data_width V.Int);
  Alcotest.(check int) "float" 8 (V.data_width V.Float);
  Alcotest.(check int) "bool" 1 (V.data_width V.Bool);
  Alcotest.(check int) "varchar" 12 (V.data_width (V.Varchar 12))

let test_value_compare_numeric () =
  Alcotest.(check bool) "int < int" true (V.compare (V.VInt 1) (V.VInt 2) < 0);
  Alcotest.(check bool) "int = float" true
    (V.compare (V.VInt 2) (V.VFloat 2.0) = 0);
  Alcotest.(check bool) "null first" true (V.compare V.Null (V.VInt (-100)) < 0)

let test_like () =
  let s = V.VStr "hello world" in
  Alcotest.(check bool) "prefix" true (V.like s ~pattern:"hello%");
  Alcotest.(check bool) "suffix" true (V.like s ~pattern:"%world");
  Alcotest.(check bool) "infix" true (V.like s ~pattern:"%lo wo%");
  Alcotest.(check bool) "underscore" true (V.like s ~pattern:"hell_ world");
  Alcotest.(check bool) "exact" true (V.like s ~pattern:"hello world");
  Alcotest.(check bool) "no match" false (V.like s ~pattern:"world%");
  Alcotest.(check bool) "too short underscore" false (V.like s ~pattern:"___");
  Alcotest.(check bool) "empty pattern vs empty" true (V.like (V.VStr "") ~pattern:"");
  Alcotest.(check bool) "percent matches empty" true (V.like (V.VStr "") ~pattern:"%");
  Alcotest.(check bool) "null never matches" false (V.like V.Null ~pattern:"%")

(* reference LIKE implementation by brute-force regex-free recursion *)
let rec like_ref p s pi si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '%' ->
        like_ref p s (pi + 1) si
        || (si < String.length s && like_ref p s pi (si + 1))
    | '_' -> si < String.length s && like_ref p s (pi + 1) (si + 1)
    | c -> si < String.length s && s.[si] = c && like_ref p s (pi + 1) (si + 1)

let qcheck_like =
  let pattern_gen =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8))
  in
  let str_gen =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 8))
  in
  QCheck.Test.make ~count:2000 ~name:"LIKE agrees with reference matcher"
    (QCheck.make QCheck.Gen.(pair pattern_gen str_gen))
    (fun (p, s) -> V.like (V.VStr s) ~pattern:p = like_ref p s 0 0)

let test_schema_lookup () =
  let s = Helpers.small_schema in
  Alcotest.(check int) "arity" 5 (Schema.arity s);
  Alcotest.(check int) "index of name" 3 (Schema.attr_index s "name");
  Alcotest.check_raises "unknown attribute" Not_found (fun () ->
      ignore (Schema.attr_index s "nope"))

let test_schema_row_width () =
  (* id 8 + grp 8 + amount 8 + name 12 + score 8 = 44 *)
  Alcotest.(check int) "row width" 44 (Schema.row_width Helpers.small_schema)

let test_layout_row_column () =
  let s = Helpers.small_schema in
  Alcotest.(check bool) "row is row" true (Layout.is_row (Layout.row s));
  Alcotest.(check bool) "column is column" true
    (Layout.is_column (Layout.column s));
  Alcotest.(check bool) "row is not column" false
    (Layout.is_column (Layout.row s));
  Alcotest.(check int) "column partitions" 5
    (Layout.n_partitions (Layout.column s))

let test_layout_validation () =
  let s = Helpers.small_schema in
  Alcotest.check_raises "missing attribute"
    (Invalid_argument "Layout: attribute 4 not covered") (fun () ->
      ignore (Layout.of_indices s [ [ 0; 1 ]; [ 2; 3 ] ]));
  Alcotest.check_raises "duplicate attribute"
    (Invalid_argument "Layout: attribute 0 in two partitions") (fun () ->
      ignore (Layout.of_indices s [ [ 0; 1 ]; [ 0; 2; 3; 4 ] ]))

let test_layout_equal_modulo_order () =
  let s = Helpers.small_schema in
  let a = Layout.of_indices s [ [ 0; 1 ]; [ 2; 3; 4 ] ] in
  let b = Layout.of_indices s [ [ 4; 3; 2 ]; [ 1; 0 ] ] in
  Alcotest.(check bool) "equal up to order" true (Layout.equal a b);
  let c = Layout.of_indices s [ [ 0 ]; [ 1 ]; [ 2; 3; 4 ] ] in
  Alcotest.(check bool) "different" false (Layout.equal a c)

let test_layout_kind_label () =
  let s = Helpers.small_schema in
  Alcotest.(check string) "row" "row" (Layout.kind_label (Layout.row s));
  Alcotest.(check string) "column" "column" (Layout.kind_label (Layout.column s));
  Alcotest.(check string) "hybrid" "hybrid(2)"
    (Layout.kind_label (Layout.of_indices s [ [ 0; 1 ]; [ 2; 3; 4 ] ]))

let test_buffer_roundtrip () =
  let arena = Storage.Arena.create () in
  let b = Buffer.create arena 256 in
  Buffer.write_int b 0 42;
  Buffer.write_int b 8 (-7);
  Buffer.write_float b 16 3.25;
  Buffer.write_string b 24 ~len:10 "hello";
  Buffer.write_byte b 40 200;
  Alcotest.(check int) "int" 42 (Buffer.read_int b 0);
  Alcotest.(check int) "negative int" (-7) (Buffer.read_int b 8);
  Alcotest.(check (float 0.0)) "float" 3.25 (Buffer.read_float b 16);
  Alcotest.(check string) "string stripped" "hello" (Buffer.read_string b 24 ~len:10);
  Alcotest.(check int) "byte" 200 (Buffer.read_byte b 40)

let test_buffer_string_truncation () =
  let arena = Storage.Arena.create () in
  let b = Buffer.create arena 64 in
  Buffer.write_string b 0 ~len:4 "truncated";
  Alcotest.(check string) "truncated to len" "trun" (Buffer.read_string b 0 ~len:4)

let test_buffer_grow_preserves () =
  let arena = Storage.Arena.create () in
  let b = Buffer.create arena 16 in
  Buffer.write_int b 0 123;
  let old_base = Buffer.base b in
  Buffer.grow b 1024;
  Alcotest.(check int) "contents preserved" 123 (Buffer.read_int b 0);
  Alcotest.(check bool) "moved to new region" true (Buffer.base b <> old_base);
  Alcotest.(check bool) "larger" true (Buffer.size b >= 1024)

let test_buffer_nullable_value () =
  let arena = Storage.Arena.create () in
  let b = Buffer.create arena 64 in
  Buffer.write_value b 0 ~ty:V.Int ~nullable:true V.Null;
  Alcotest.(check Helpers.value_testable) "null roundtrip" V.Null
    (Buffer.read_value b 0 ~ty:V.Int ~nullable:true);
  Buffer.write_value b 16 ~ty:V.Int ~nullable:true (V.VInt 5);
  Alcotest.(check Helpers.value_testable) "non-null roundtrip" (V.VInt 5)
    (Buffer.read_value b 16 ~ty:V.Int ~nullable:true)

let test_buffer_null_into_non_nullable () =
  let arena = Storage.Arena.create () in
  let b = Buffer.create arena 64 in
  Alcotest.check_raises "rejects null"
    (Invalid_argument "Buffer.write_value: NULL into non-nullable attribute")
    (fun () -> Buffer.write_value b 0 ~ty:V.Int ~nullable:false V.Null)

let test_arena_no_overlap () =
  let arena = Storage.Arena.create () in
  let a = Storage.Arena.alloc arena 100 in
  let b = Storage.Arena.alloc arena 100 in
  Alcotest.(check bool) "disjoint regions" true (b >= a + 100);
  Alcotest.(check int) "page aligned" 0 (a mod 4096)

let all_layouts schema =
  [
    Layout.row schema;
    Layout.column schema;
    Layout.of_indices schema [ [ 0; 2 ]; [ 1; 3 ]; [ 4 ] ];
  ]

let test_relation_roundtrip_all_layouts () =
  List.iter
    (fun layout ->
      let hier = Memsim.Hierarchy.create () in
      let cat = Storage.Catalog.create ~hier () in
      let rel = Storage.Catalog.add cat Helpers.small_schema layout in
      Helpers.fill_small rel 100;
      Alcotest.(check int) "nrows" 100 (Relation.nrows rel);
      for tid = 0 to 99 do
        Alcotest.(check Helpers.row_testable)
          (Printf.sprintf "tuple %d" tid)
          [|
            V.VInt tid;
            V.VInt (tid mod 7);
            V.VInt (tid * 3 mod 101);
            V.VStr (Printf.sprintf "name%03d" (tid mod 50));
            V.VFloat (float_of_int (tid mod 13) /. 4.0);
          |]
          (Relation.get_tuple rel tid)
      done)
    (all_layouts Helpers.small_schema)

let test_relation_set () =
  let cat = Helpers.small_catalog ~n:10 () in
  let rel = Storage.Catalog.find cat "t" in
  Relation.set rel 3 2 (V.VInt 9999);
  Alcotest.(check Helpers.value_testable) "updated" (V.VInt 9999)
    (Relation.get rel 3 2);
  Alcotest.(check Helpers.value_testable) "neighbour untouched" (V.VInt 3)
    (Relation.get rel 1 2)

let test_relation_growth () =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let rel =
    Relation.create ~hier ~capacity:4 (Storage.Catalog.arena cat)
      Helpers.small_schema
      (Layout.row Helpers.small_schema)
  in
  Helpers.fill_small rel 1000;
  Alcotest.(check int) "grew past capacity" 1000 (Relation.nrows rel);
  Alcotest.(check Helpers.value_testable) "late tuple intact" (V.VInt 999)
    (Relation.get rel 999 0)

let test_relation_addresses_follow_layout () =
  let cat =
    Helpers.small_catalog ~n:10
      ~layout:[ [ "id"; "grp" ]; [ "amount"; "name"; "score" ] ]
      ()
  in
  let rel = Storage.Catalog.find cat "t" in
  (* part_base + tid * part_width + offset(a), as a compiled scan reads it *)
  let addr tid a =
    let p = Relation.part_of_attr rel a in
    Storage.Buffer.base (Relation.part_buffer rel p)
    + Relation.part_row_offset rel p
    + (tid * Relation.part_width rel p)
    + Relation.attr_offset rel a
  in
  (* id and grp share a 16-byte partition tuple *)
  Alcotest.(check int) "id->grp offset" 8 (addr 0 1 - addr 0 0);
  Alcotest.(check int) "next tuple stride" 16 (addr 1 0 - addr 0 0);
  (* amount..score partition is 28 bytes wide *)
  Alcotest.(check int) "second partition stride" 28 (addr 1 2 - addr 0 2);
  Alcotest.(check bool) "partitions are disjoint" true
    (Relation.part_of_attr rel 0 <> Relation.part_of_attr rel 2)

let test_repartition_preserves_data () =
  let cat = Helpers.small_catalog ~n:200 () in
  let rel = Storage.Catalog.find cat "t" in
  let before = List.init 200 (Relation.get_tuple rel) in
  Storage.Catalog.set_layout cat "t"
    (Layout.of_names Helpers.small_schema
       [ [ "score"; "id" ]; [ "grp" ]; [ "amount"; "name" ] ]);
  let rel' = Storage.Catalog.find cat "t" in
  let after = List.init 200 (Relation.get_tuple rel') in
  Helpers.check_rows "same tuples" before after

(* ------------------------------------------------------------------ *)
(* Growth room across a layout change                                  *)
(* ------------------------------------------------------------------ *)

(* [n] rows at a capacity of exactly [n], then one append when [grown]:
   a relation that has grown since it was built has spare capacity. *)
let sized_catalog ~n ~grown =
  let hier = Memsim.Hierarchy.create () in
  let cat = Storage.Catalog.create ~hier () in
  let rel =
    Relation.create ~hier ~capacity:n (Storage.Catalog.arena cat)
      Helpers.small_schema
      (Layout.row Helpers.small_schema)
  in
  Storage.Catalog.add_relation cat rel;
  Helpers.fill_small rel n;
  if grown then ignore (Relation.append rel (Helpers.small_row n));
  cat

let part_buffers rel =
  Array.init (Relation.n_parts rel) (Relation.part_buffer rel)

(* Append rows until the relation holds [upto], then check every row. *)
let append_upto rel upto =
  for tid = Relation.nrows rel to upto - 1 do
    ignore (Relation.append rel (Helpers.small_row tid))
  done;
  Helpers.check_rows "rows read back"
    (List.init upto Helpers.small_row)
    (List.init upto (Relation.get_tuple rel))

let column = Layout.column Helpers.small_schema

let set_layout cat = Storage.Catalog.set_layout cat "t" column

let set_physical cat =
  Storage.Catalog.set_physical cat "t" ~layout:column
    [ (3, Storage.Encoding.Dict) ]

(* After a relation that grew goes through [change], the first append
   grows every partition's extent as before (doubled, at the arena's next
   regions in partition order) but keeps its host bytes; an append past
   that room copies them. *)
let check_room_kept change () =
  let cat = sized_catalog ~n:8 ~grown:true in
  change cat;
  let rel = Storage.Catalog.find cat "t" in
  let n = Relation.nrows rel in
  let bufs = part_buffers rel in
  let host = Array.map Buffer.unsafe_bytes bufs in
  let size = Array.map Buffer.size bufs in
  let next =
    Storage.Arena.create ~start:(Storage.Arena.mark (Relation.arena rel)) ()
  in
  ignore (Relation.append rel (Helpers.small_row n));
  Array.iteri
    (fun p b ->
      Alcotest.(check bool)
        (Printf.sprintf "partition %d keeps its host bytes" p)
        true
        (Buffer.unsafe_bytes b == host.(p));
      Alcotest.(check int)
        (Printf.sprintf "partition %d extent doubles" p)
        (2 * size.(p)) (Buffer.size b);
      Alcotest.(check int)
        (Printf.sprintf "partition %d takes the next region" p)
        (Storage.Arena.alloc next (2 * size.(p)))
        (Buffer.base b))
    bufs;
  append_upto rel ((2 * n) + 1);
  Array.iteri
    (fun p b ->
      Alcotest.(check bool)
        (Printf.sprintf "partition %d regrew past its room" p)
        false
        (Buffer.unsafe_bytes b == host.(p));
      Alcotest.(check int)
        (Printf.sprintf "partition %d extent doubles again" p)
        (4 * size.(p)) (Buffer.size b))
    bufs

(* A relation at exactly its capacity gets no room: its first append after
   the change copies every partition, as before. *)
let check_no_room change () =
  let cat = sized_catalog ~n:8 ~grown:false in
  change cat;
  let rel = Storage.Catalog.find cat "t" in
  let bufs = part_buffers rel in
  let host = Array.map Buffer.unsafe_bytes bufs in
  Array.iteri
    (fun p b ->
      Alcotest.(check int)
        (Printf.sprintf "partition %d host bytes = extent" p)
        (Buffer.size b)
        (Bytes.length host.(p)))
    bufs;
  append_upto rel (Relation.nrows rel + 1);
  Array.iteri
    (fun p b ->
      Alcotest.(check bool)
        (Printf.sprintf "partition %d copied on its first grow" p)
        false
        (Buffer.unsafe_bytes b == host.(p)))
    bufs

(* ------------------------------------------------------------------ *)
(* View windows (with_hier + reslice)                                  *)
(* ------------------------------------------------------------------ *)

(* a window [lo, lo + len) cut from a fresh view of [rel] *)
let window rel ~lo ~len =
  let view = Relation.with_hier rel (Relation.hier rel) in
  Relation.reslice view ~lo ~len;
  view

let test_slice_boundaries () =
  let cat = Helpers.small_catalog ~n:50 () in
  let rel = Storage.Catalog.find cat "t" in
  (* zero-length windows are legal at every position, including both ends *)
  List.iter
    (fun lo ->
      Alcotest.(check int)
        (Printf.sprintf "empty window at %d" lo)
        0
        (Relation.nrows (window rel ~lo ~len:0)))
    [ 0; 25; 50 ];
  (* a full-width window is the identity on contents *)
  let full = window rel ~lo:0 ~len:50 in
  Alcotest.(check int) "full window length" 50 (Relation.nrows full);
  Alcotest.(check Helpers.row_testable) "full window last tuple"
    (Relation.get_tuple rel 49) (Relation.get_tuple full 49);
  (* one-row windows at both extremes *)
  Alcotest.(check Helpers.value_testable) "first row" (V.VInt 0)
    (Relation.get (window rel ~lo:0 ~len:1) 0 0);
  Alcotest.(check Helpers.value_testable) "last row" (V.VInt 49)
    (Relation.get (window rel ~lo:49 ~len:1) 0 0)

let test_reslice_boundaries () =
  let cat = Helpers.small_catalog ~n:30 () in
  let rel = Storage.Catalog.find cat "t" in
  let view = Relation.with_hier rel (Relation.hier rel) in
  (* reslice to a zero-length window, then back out to the full relation *)
  Relation.reslice view ~lo:0 ~len:0;
  Alcotest.(check int) "zero window" 0 (Relation.nrows view);
  Relation.reslice view ~lo:0 ~len:30;
  Alcotest.(check int) "full window again" 30 (Relation.nrows view);
  (* zero-length window at the far end is the last legal position *)
  Relation.reslice view ~lo:30 ~len:0;
  Alcotest.(check int) "empty at end" 0 (Relation.nrows view);
  Relation.reslice view ~lo:29 ~len:1;
  Alcotest.(check Helpers.value_testable) "final row window" (V.VInt 29)
    (Relation.get view 0 0)

let test_view_of_resliced_view () =
  let cat = Helpers.small_catalog ~n:100 () in
  let rel = Storage.Catalog.find cat "t" in
  let mid = Relation.with_hier rel (Relation.hier rel) in
  Relation.reslice mid ~lo:20 ~len:60;
  (* a view of [mid] is bounded by [mid]'s window, rows 20..79 *)
  let nested = Relation.with_hier mid (Relation.hier mid) in
  (* nested window pinned to the parent's low end: tuple 0 = base row 20 *)
  Relation.reslice nested ~lo:0 ~len:5;
  Alcotest.(check Helpers.row_testable) "low-end nested origin"
    (Relation.get_tuple rel 20) (Relation.get_tuple nested 0);
  (* nested window pinned to the parent's high end: last tuple = base row 79 *)
  Relation.reslice nested ~lo:55 ~len:5;
  Alcotest.(check Helpers.row_testable) "high-end nested last"
    (Relation.get_tuple rel 79) (Relation.get_tuple nested 4);
  (* zero-length nested window exactly at the parent's upper bound *)
  Relation.reslice nested ~lo:60 ~len:0;
  Alcotest.(check int) "empty at parent bound" 0 (Relation.nrows nested);
  Alcotest.check_raises "past the parent's window"
    (Invalid_argument
       "Relation.reslice(t): rows [56, 61) out of bounds (parent window \
        holds 60 rows)")
    (fun () -> Relation.reslice nested ~lo:56 ~len:5)

let qcheck_relation_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"relation stores arbitrary int/string tuples under random layouts"
    QCheck.(
      triple (small_list (pair small_int (string_of_size (QCheck.Gen.int_bound 10))))
        small_int small_int)
    (fun (rows, seed, _) ->
      let schema =
        Storage.Schema.make "q" [ ("a", V.Int); ("b", V.Varchar 10) ]
      in
      let rng = Mrdb_util.Rng.create seed in
      let layout =
        if Mrdb_util.Rng.bool rng 0.5 then Layout.row schema
        else Layout.column schema
      in
      let cat = Storage.Catalog.create () in
      let rel = Storage.Catalog.add cat schema layout in
      (* zero-strip: stored strings lose NUL padding, so compare stripped *)
      let sanitize s =
        match String.index_opt s '\000' with
        | Some i -> String.sub s 0 i
        | None -> s
      in
      List.iter
        (fun (a, b) -> ignore (Relation.append rel [| V.VInt a; V.VStr b |]))
        rows;
      List.for_all2
        (fun (a, b) tid ->
          V.equal (Relation.get rel tid 0) (V.VInt a)
          && V.equal (Relation.get rel tid 1) (V.VStr (sanitize b)))
        rows
        (List.init (List.length rows) Fun.id))

(* A NULL over a present Sparse pair removes the pair's entry: a row
   rewritten NULL then a value, over and over, leaves the side region at
   one entry per live value, the footprint the compression advisor
   predicts for the live content. *)
let test_sparse_null_rewrite () =
  let schema =
    Schema.make_nullable "sp" [ ("id", V.Int, false); ("v", V.Int, true) ]
  in
  let cat = Storage.Catalog.create () in
  let rel = Storage.Catalog.add cat schema (Layout.column schema) in
  Relation.load rel ~n:10 (fun ~row -> [| V.VInt row; V.VInt row |]);
  let rel = Relation.recompress rel [ (1, Storage.Encoding.Sparse) ] in
  for _ = 1 to 1_000 do
    Relation.set rel 3 1 V.Null;
    Relation.set rel 3 1 (V.VInt 21)
  done;
  Alcotest.(check int) "one entry per live value" 10
    (Relation.side_entries rel 1);
  Alcotest.(check int) "storage bytes" 240 (Relation.storage_bytes rel);
  let st = Storage.Compress.analyze rel in
  Alcotest.(check int) "the advisor's footprint of the live content"
    (Storage.Compress.encoded_bytes schema st.(0) Storage.Encoding.Plain
    + Storage.Compress.encoded_bytes schema st.(1) Storage.Encoding.Sparse)
    (Relation.storage_bytes rel);
  Relation.set rel 3 1 V.Null;
  Alcotest.(check int) "a NULL drops its entry" 9 (Relation.side_entries rel 1);
  Relation.set rel 3 1 V.Null;
  Alcotest.(check int) "a NULL over NULL changes nothing" 9
    (Relation.side_entries rel 1)

let suite =
  [
    Alcotest.test_case "sparse NULL rewrite keeps one entry per value" `Quick
      test_sparse_null_rewrite;
    Alcotest.test_case "value widths" `Quick test_value_widths;
    Alcotest.test_case "value compare" `Quick test_value_compare_numeric;
    Alcotest.test_case "LIKE matcher" `Quick test_like;
    QCheck_alcotest.to_alcotest qcheck_like;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema row width" `Quick test_schema_row_width;
    Alcotest.test_case "layout row/column" `Quick test_layout_row_column;
    Alcotest.test_case "layout validation" `Quick test_layout_validation;
    Alcotest.test_case "layout equality" `Quick test_layout_equal_modulo_order;
    Alcotest.test_case "layout labels" `Quick test_layout_kind_label;
    Alcotest.test_case "buffer roundtrip" `Quick test_buffer_roundtrip;
    Alcotest.test_case "buffer truncation" `Quick test_buffer_string_truncation;
    Alcotest.test_case "buffer grow" `Quick test_buffer_grow_preserves;
    Alcotest.test_case "buffer nullable" `Quick test_buffer_nullable_value;
    Alcotest.test_case "buffer null guard" `Quick test_buffer_null_into_non_nullable;
    Alcotest.test_case "arena disjoint" `Quick test_arena_no_overlap;
    Alcotest.test_case "relation roundtrip x layouts" `Quick
      test_relation_roundtrip_all_layouts;
    Alcotest.test_case "relation set" `Quick test_relation_set;
    Alcotest.test_case "relation growth" `Quick test_relation_growth;
    Alcotest.test_case "relation addresses" `Quick
      test_relation_addresses_follow_layout;
    Alcotest.test_case "repartition preserves data" `Quick
      test_repartition_preserves_data;
    Alcotest.test_case "set_layout keeps growth room" `Quick
      (check_room_kept set_layout);
    Alcotest.test_case "set_physical keeps growth room" `Quick
      (check_room_kept set_physical);
    Alcotest.test_case "set_layout of an ungrown relation: no room" `Quick
      (check_no_room set_layout);
    Alcotest.test_case "set_physical of an ungrown relation: no room" `Quick
      (check_no_room set_physical);
    QCheck_alcotest.to_alcotest qcheck_relation_roundtrip;
    Alcotest.test_case "slice boundaries" `Quick test_slice_boundaries;
    Alcotest.test_case "reslice boundaries" `Quick test_reslice_boundaries;
    Alcotest.test_case "view of a resliced view" `Quick
      test_view_of_resliced_view;
  ]
