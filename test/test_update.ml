(* Tests for UPDATE statements: SQL parsing, planning, execution on every
   engine, index interaction, and cost-model emission. *)

module V = Storage.Value
module Engine = Engines.Engine

let test_parse_update () =
  let cat = Helpers.small_catalog ~n:10 () in
  match
    Relalg.Sql.parse cat "update t set amount = amount + 1, grp = 0 where id = $1"
  with
  | Relalg.Plan.Update { table = "t"; assignments; pred = Some _ } ->
      Alcotest.(check (list int)) "assigned columns" [ 2; 1 ]
        (List.map fst assignments)
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Relalg.Plan.pp p)

let test_parse_update_no_where () =
  let cat = Helpers.small_catalog ~n:10 () in
  match Relalg.Sql.parse cat "update t set amount = 0" with
  | Relalg.Plan.Update { pred = None; assignments = [ (2, _) ]; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Relalg.Plan.pp p)

let run_update engine cat sql params =
  let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
  ignore (Engine.run engine cat plan ~params)

let test_update_executes engine () =
  let cat = Helpers.small_catalog ~n:30 () in
  let rel = Storage.Catalog.find cat "t" in
  run_update engine cat "update t set amount = 999 where grp = $1"
    [| V.VInt 2 |];
  for tid = 0 to 29 do
    let expected =
      if tid mod 7 = 2 then V.VInt 999 else V.VInt (tid * 3 mod 101)
    in
    Alcotest.(check Helpers.value_testable)
      (Printf.sprintf "amount of %d" tid)
      expected
      (Storage.Relation.get rel tid 2)
  done

let test_update_rhs_uses_old_values engine () =
  let cat = Helpers.small_catalog ~n:10 () in
  let rel = Storage.Catalog.find cat "t" in
  (* swap-like: both right-hand sides must see the OLD tuple *)
  run_update engine cat "update t set amount = id, id = amount where id = 4"
    [||];
  Alcotest.(check Helpers.value_testable) "amount := old id" (V.VInt 4)
    (Storage.Relation.get rel 4 2);
  Alcotest.(check Helpers.value_testable) "id := old amount"
    (V.VInt (4 * 3 mod 101))
    (Storage.Relation.get rel 4 0)

let test_update_via_index () =
  let cat = Helpers.small_catalog ~n:500 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let logical =
    Relalg.Sql.parse cat "update t set name = 'patched' where id = $1"
  in
  (match Relalg.Planner.plan cat logical with
  | Relalg.Physical.Update { access = Relalg.Physical.Index_eq _; _ } -> ()
  | p ->
      Alcotest.fail
        (Format.asprintf "expected index update: %a" Relalg.Physical.pp p));
  let plan = Relalg.Planner.plan cat logical in
  ignore (Engine.run Engine.Jit cat plan ~params:[| V.VInt 77 |]);
  let rel = Storage.Catalog.find cat "t" in
  Alcotest.(check Helpers.value_testable) "patched" (V.VStr "patched")
    (Storage.Relation.get rel 77 3)

let test_update_rebuilds_touched_index () =
  let cat = Helpers.small_catalog ~n:100 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  (* move id 5 to id 5005: the index must follow *)
  run_update Engine.Jit cat "update t set id = 5005 where id = 5" [||];
  let rel = Storage.Catalog.find cat "t" in
  match Storage.Catalog.find_index cat "t" ~attrs:[ 0 ] with
  | Some idx ->
      Alcotest.(check (list int)) "new key found" [ 5 ]
        (Storage.Index.lookup_eq idx rel [ V.VInt 5005 ]);
      Alcotest.(check (list int)) "old key gone" []
        (Storage.Index.lookup_eq idx rel [ V.VInt 5 ])
  | None -> Alcotest.fail "index missing"

let test_update_index_cheaper_than_scan () =
  let cat = Helpers.small_catalog ~n:5000 () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let logical = Relalg.Sql.parse cat "update t set amount = 1 where id = $1" in
  let cycles ~use_indexes =
    let plan = Relalg.Planner.plan ~use_indexes cat logical in
    let _, st =
      Engine.run_measured Engine.Jit cat plan ~params:[| V.VInt 2500 |]
    in
    Memsim.Stats.total_cycles st
  in
  Alcotest.(check bool) "indexed update much cheaper" true
    (50 * cycles ~use_indexes:true < cycles ~use_indexes:false)

let test_update_emission () =
  let cat = Helpers.small_catalog ~n:1000 () in
  let plan =
    Relalg.Planner.plan cat
      (Relalg.Sql.parse cat "update t set amount = 0 where grp = $1")
  in
  let pattern, descs = Costmodel.Emit.emit cat plan in
  Alcotest.(check bool) "write atoms present" true
    (List.exists
       (function Costmodel.Pattern.Rr_acc _ -> true | _ -> false)
       (Costmodel.Pattern.atoms pattern));
  Alcotest.(check bool) "rand descriptor for assigned attrs" true
    (List.exists
       (fun d -> d.Costmodel.Emit.kind = Costmodel.Emit.Rand)
       descs);
  Alcotest.(check bool) "cost positive" true
    (Costmodel.Model.query_cost cat plan > 0.0)

(* A failing UPDATE changes nothing: [set a = b] writes rows 0 and 1, then
   meets the NULL of row 2.  It raises BAD_REQUEST with the rows it wrote
   restored, so the live state equals what recovery rebuilds from the WAL,
   which logged the statement's Abort. *)
let test_failed_update_changes_nothing engine () =
  let cat = Helpers.nullable_catalog ~hier:(Memsim.Hierarchy.create ()) () in
  let env = Durability.Faultio.memory () in
  let d = Durability.Durable.attach env cat in
  (match run_update engine cat "update t set a = b" [||] with
  | () -> Alcotest.fail "an update writing NULL into [a] must fail"
  | exception Mrdb_util.Errors.Bad_request _ -> ());
  Durability.Durable.detach d;
  let recovered = (Durability.Recover.run env).Durability.Recover.cat in
  Alcotest.(check (list Helpers.value_testable))
    "a unchanged"
    [ V.VInt 1; V.VInt 2; V.VInt 3; V.VInt 4 ]
    (Helpers.column cat "t" 0);
  Alcotest.(check string) "live digest = recovered digest"
    (Durability.Snapshot.digest recovered)
    (Durability.Snapshot.digest cat)

let per_engine name f =
  List.map
    (fun e ->
      Alcotest.test_case
        (Printf.sprintf "%s [%s]" name (Engine.name e))
        `Quick (f e))
    Engine.all

let suite =
  [
    Alcotest.test_case "parse update" `Quick test_parse_update;
    Alcotest.test_case "parse update without where" `Quick
      test_parse_update_no_where;
  ]
  @ per_engine "update executes" test_update_executes
  @ per_engine "rhs sees old values" test_update_rhs_uses_old_values
  @ per_engine "failed update changes nothing"
      test_failed_update_changes_nothing
  @ [
      Alcotest.test_case "update via index" `Quick test_update_via_index;
      Alcotest.test_case "update rebuilds index" `Quick
        test_update_rebuilds_touched_index;
      Alcotest.test_case "indexed update cheaper" `Quick
        test_update_index_cheaper_than_scan;
      Alcotest.test_case "update emission" `Quick test_update_emission;
    ]
