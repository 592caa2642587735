(* Tests for hash and red-black-tree indexes. *)

module V = Storage.Value
module Hash_index = Storage.Hash_index
module Rb_index = Storage.Rb_index
module Index = Storage.Index

let test_hash_basic () =
  let arena = Storage.Arena.create () in
  let idx = Hash_index.create arena () in
  Hash_index.insert idx ~key:10 ~tid:1;
  Hash_index.insert idx ~key:20 ~tid:2;
  Alcotest.(check (list int)) "hit" [ 1 ] (Hash_index.lookup idx ~key:10);
  Alcotest.(check (list int)) "miss" [] (Hash_index.lookup idx ~key:30)

let test_hash_duplicates () =
  let arena = Storage.Arena.create () in
  let idx = Hash_index.create arena () in
  Hash_index.insert idx ~key:5 ~tid:1;
  Hash_index.insert idx ~key:5 ~tid:2;
  Hash_index.insert idx ~key:5 ~tid:3;
  Alcotest.(check (list int)) "all dups" [ 1; 2; 3 ]
    (List.sort compare (Hash_index.lookup idx ~key:5))

let test_hash_grows () =
  let arena = Storage.Arena.create () in
  let idx = Hash_index.create arena ~capacity:4 () in
  for i = 0 to 999 do
    Hash_index.insert idx ~key:i ~tid:(i * 2)
  done;
  Alcotest.(check int) "count" 1000 (Hash_index.length idx);
  for i = 0 to 999 do
    Alcotest.(check (list int))
      (Printf.sprintf "key %d survives rehash" i)
      [ i * 2 ]
      (Hash_index.lookup idx ~key:i)
  done

let test_hash_negative_keys () =
  let arena = Storage.Arena.create () in
  let idx = Hash_index.create arena () in
  Hash_index.insert idx ~key:(-42) ~tid:7;
  Alcotest.(check (list int)) "negative key" [ 7 ]
    (Hash_index.lookup idx ~key:(-42))

let test_key_of_value () =
  Alcotest.(check int) "int key is identity" 99
    (Hash_index.key_of_value (V.VInt 99));
  Alcotest.(check bool) "string keys consistent" true
    (Hash_index.key_of_value (V.VStr "x")
    = Hash_index.key_of_value (V.VStr "x"));
  Alcotest.(check bool) "different strings differ" true
    (Hash_index.key_of_value (V.VStr "x")
    <> Hash_index.key_of_value (V.VStr "y"))

let test_rb_sorted_range () =
  let arena = Storage.Arena.create () in
  let idx = Rb_index.create arena () in
  let rng = Mrdb_util.Rng.create 1 in
  let keys = Array.init 500 (fun i -> (i, Mrdb_util.Rng.int rng 1000)) in
  Array.iter (fun (tid, key) -> Rb_index.insert idx ~key ~tid) keys;
  Alcotest.(check int) "size" 500 (Rb_index.size idx);
  let expected =
    Array.to_list keys
    |> List.filter (fun (_, k) -> k >= 200 && k <= 300)
    |> List.map fst |> List.sort compare
  in
  let got = List.sort compare (Rb_index.range idx ~lo:200 ~hi:300) in
  Alcotest.(check (list int)) "range contents" expected got

let test_rb_lookup_duplicates () =
  let arena = Storage.Arena.create () in
  let idx = Rb_index.create arena () in
  Rb_index.insert idx ~key:7 ~tid:1;
  Rb_index.insert idx ~key:7 ~tid:2;
  Rb_index.insert idx ~key:8 ~tid:3;
  Alcotest.(check (list int)) "both dups" [ 1; 2 ]
    (List.sort compare (Rb_index.lookup idx ~key:7))

let test_rb_invariants_random () =
  let arena = Storage.Arena.create () in
  let idx = Rb_index.create arena () in
  let rng = Mrdb_util.Rng.create 2 in
  for tid = 0 to 2000 do
    Rb_index.insert idx ~key:(Mrdb_util.Rng.int rng 100) ~tid;
    if tid mod 500 = 0 then
      Alcotest.(check bool) "red-black invariants hold" true
        (Rb_index.check_invariants idx)
  done;
  Alcotest.(check bool) "final invariants" true (Rb_index.check_invariants idx)

let test_rb_invariants_sorted_inserts () =
  let arena = Storage.Arena.create () in
  let idx = Rb_index.create arena () in
  for tid = 0 to 1000 do
    Rb_index.insert idx ~key:tid ~tid
  done;
  Alcotest.(check bool) "invariants under sorted inserts" true
    (Rb_index.check_invariants idx);
  Alcotest.(check (list int)) "full range ordered"
    (List.init 1001 Fun.id)
    (Rb_index.range idx ~lo:0 ~hi:2000)

let qcheck_rb_range =
  QCheck.Test.make ~count:200 ~name:"rb range equals filtered list"
    QCheck.(small_list (pair small_int small_int))
    (fun pairs ->
      let arena = Storage.Arena.create () in
      let idx = Rb_index.create arena () in
      List.iteri (fun tid (k, _) -> Rb_index.insert idx ~key:k ~tid) pairs;
      let lo = 10 and hi = 60 in
      let expected =
        List.mapi (fun tid (k, _) -> (tid, k)) pairs
        |> List.filter (fun (_, k) -> k >= lo && k <= hi)
        |> List.map fst |> List.sort compare
      in
      List.sort compare (Rb_index.range idx ~lo ~hi) = expected
      && Rb_index.check_invariants idx)

let test_index_verified_lookup () =
  let cat = Helpers.small_catalog ~n:300 () in
  let rel = Storage.Catalog.find cat "t" in
  (* non-unique string attribute: hash keys may collide, verify filters *)
  let idx = Index.build_hash rel ~attrs:[ 3 ] in
  let hits = Index.lookup_eq idx rel [ V.VStr "name007" ] in
  let expected =
    List.filter
      (fun tid -> V.equal (Storage.Relation.get rel tid 3) (V.VStr "name007"))
      (List.init 300 Fun.id)
  in
  Alcotest.(check (list int)) "verified hits" expected (List.sort compare hits)

let test_index_maintenance () =
  let cat = Helpers.small_catalog ~n:50 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Index.Hash
    ~attrs:[ "id" ];
  let rel = Storage.Catalog.find cat "t" in
  let tid = Storage.Relation.nrows rel in
  Storage.Write.apply cat
    (Storage.Write.Append
       {
         table = "t";
         values =
           [| V.VInt 777; V.VInt 0; V.VInt 0; V.VStr "new"; V.VFloat 0.0 |];
       });
  match Storage.Catalog.find_index cat "t" ~attrs:[ 0 ] with
  | Some idx ->
      Alcotest.(check (list int)) "fresh tuple indexed" [ tid ]
        (Index.lookup_eq idx rel [ V.VInt 777 ])
  | None -> Alcotest.fail "index not found"

let test_index_survives_repartition () =
  let cat = Helpers.small_catalog ~n:100 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Index.Hash
    ~attrs:[ "id" ];
  Storage.Catalog.set_layout cat "t"
    (Storage.Layout.column Helpers.small_schema);
  let rel = Storage.Catalog.find cat "t" in
  match Storage.Catalog.find_index cat "t" ~attrs:[ 0 ] with
  | Some idx ->
      Alcotest.(check (list int)) "rebuilt index answers" [ 42 ]
        (Index.lookup_eq idx rel [ V.VInt 42 ])
  | None -> Alcotest.fail "index lost on repartition"

let test_rb_range_through_wrapper () =
  let cat = Helpers.small_catalog ~n:100 () in
  let rel = Storage.Catalog.find cat "t" in
  let idx = Index.build_rb rel ~attr:0 in
  Alcotest.(check (list int)) "range" [ 10; 11; 12 ]
    (List.sort compare
       (Index.lookup_range idx ~lo:(V.VInt 10) ~hi:(V.VInt 12)))

let test_index_traffic_counted () =
  let cat = Helpers.small_catalog ~n:500 () in
  let rel = Storage.Catalog.find cat "t" in
  let idx = Index.build_rb rel ~attr:0 in
  let hier = Option.get (Storage.Catalog.hier cat) in
  Memsim.Hierarchy.reset hier;
  ignore (Index.lookup_eq idx rel [ V.VInt 250 ]);
  let s = Memsim.Hierarchy.stats hier in
  Alcotest.(check bool) "tree descent generates accesses" true
    (s.Memsim.Stats.accesses > 3)

let suite =
  [
    Alcotest.test_case "hash basic" `Quick test_hash_basic;
    Alcotest.test_case "hash duplicates" `Quick test_hash_duplicates;
    Alcotest.test_case "hash rehash" `Quick test_hash_grows;
    Alcotest.test_case "hash negative keys" `Quick test_hash_negative_keys;
    Alcotest.test_case "hash key derivation" `Quick test_key_of_value;
    Alcotest.test_case "rb sorted range" `Quick test_rb_sorted_range;
    Alcotest.test_case "rb duplicates" `Quick test_rb_lookup_duplicates;
    Alcotest.test_case "rb invariants random" `Quick test_rb_invariants_random;
    Alcotest.test_case "rb invariants sorted" `Quick test_rb_invariants_sorted_inserts;
    QCheck_alcotest.to_alcotest qcheck_rb_range;
    Alcotest.test_case "verified lookup" `Quick test_index_verified_lookup;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    Alcotest.test_case "index survives repartition" `Quick
      test_index_survives_repartition;
    Alcotest.test_case "rb range wrapper" `Quick test_rb_range_through_wrapper;
    Alcotest.test_case "index traffic counted" `Quick test_index_traffic_counted;
  ]
