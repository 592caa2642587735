(* Tests for expressions, plans, the planner and the SQL front end. *)

module V = Storage.Value
module Expr = Relalg.Expr
module Plan = Relalg.Plan
module Physical = Relalg.Physical
module Sql = Relalg.Sql

let eval ?(params = [||]) ?(col = fun _ -> V.Null) e = Expr.eval e ~params col

let test_expr_arith () =
  let e = Expr.Arith (Expr.Add, Expr.Const (V.VInt 2), Expr.Const (V.VInt 3)) in
  Alcotest.(check Helpers.value_testable) "2+3" (V.VInt 5) (eval e);
  let e =
    Expr.Arith (Expr.Div, Expr.Const (V.VInt 7), Expr.Const (V.VInt 2))
  in
  Alcotest.(check Helpers.value_testable) "int division" (V.VInt 3) (eval e);
  let e =
    Expr.Arith (Expr.Mul, Expr.Const (V.VFloat 1.5), Expr.Const (V.VInt 2))
  in
  Alcotest.(check Helpers.value_testable) "float contagion" (V.VFloat 3.0)
    (eval e)

let test_expr_div_by_zero () =
  let e = Expr.Arith (Expr.Div, Expr.Const (V.VInt 7), Expr.Const (V.VInt 0)) in
  Alcotest.(check Helpers.value_testable) "int div by zero yields 0" (V.VInt 0)
    (eval e)

let test_expr_null_propagation () =
  let e = Expr.Arith (Expr.Add, Expr.Const V.Null, Expr.Const (V.VInt 1)) in
  Alcotest.(check Helpers.value_testable) "null + 1 = null" V.Null (eval e);
  let e = Expr.Cmp (Expr.Eq, Expr.Const V.Null, Expr.Const V.Null) in
  Alcotest.(check Helpers.value_testable) "null = null is false"
    (V.VBool false) (eval e);
  let e = Expr.IsNull (Expr.Const V.Null) in
  Alcotest.(check Helpers.value_testable) "is null" (V.VBool true) (eval e)

let test_expr_boolean_logic () =
  let t = Expr.Const (V.VBool true) and f = Expr.Const (V.VBool false) in
  Alcotest.(check Helpers.value_testable) "and" (V.VBool false)
    (eval (Expr.And [ t; f ]));
  Alcotest.(check Helpers.value_testable) "or" (V.VBool true)
    (eval (Expr.Or [ f; t ]));
  Alcotest.(check Helpers.value_testable) "not" (V.VBool true)
    (eval (Expr.Not f))

let test_expr_params () =
  let e = Expr.Cmp (Expr.Lt, Expr.Param 1, Expr.Param 2) in
  Alcotest.(check Helpers.value_testable) "$1 < $2" (V.VBool true)
    (eval ~params:[| V.VInt 1; V.VInt 2 |] e);
  Alcotest.check_raises "unbound parameter"
    (Invalid_argument "Expr.eval: parameter $3 not bound") (fun () ->
      ignore (eval (Expr.Param 3)))

let test_expr_specialize_matches_eval () =
  let e =
    Expr.And
      [
        Expr.Cmp (Expr.Ge, Expr.Col 0, Expr.Param 1);
        Expr.Or
          [
            Expr.Like (Expr.Col 1, Expr.Const (V.VStr "a%"));
            Expr.Cmp (Expr.Ne, Expr.Col 0, Expr.Const (V.VInt 17));
          ];
      ]
  in
  let params = [| V.VInt 5 |] in
  let rows =
    [
      [| V.VInt 4; V.VStr "abc" |];
      [| V.VInt 5; V.VStr "xyz" |];
      [| V.VInt 17; V.VStr "zzz" |];
      [| V.VInt 17; V.VStr "all" |];
    ]
  in
  List.iter
    (fun row ->
      let col i = row.(i) in
      let direct = Expr.eval e ~params col in
      let compiled = Expr.specialize e ~params col in
      Alcotest.(check Helpers.value_testable) "specialize = eval" direct
        (compiled ()))
    rows

let test_expr_cols_and_remap () =
  let e =
    Expr.And
      [
        Expr.Cmp (Expr.Eq, Expr.Col 3, Expr.Col 1);
        Expr.Arith (Expr.Add, Expr.Col 3, Expr.Param 1);
      ]
  in
  Alcotest.(check (list int)) "cols" [ 1; 3 ] (Expr.cols e);
  let e' = Expr.remap e (fun i -> i + 10) in
  Alcotest.(check (list int)) "remapped" [ 11; 13 ] (Expr.cols e')

let test_default_selectivity () =
  let eq = Expr.Cmp (Expr.Eq, Expr.Col 0, Expr.Param 1) in
  Alcotest.(check (float 1e-9)) "eq" 0.01 (Expr.default_selectivity eq);
  let conj = Expr.And [ eq; eq ] in
  Alcotest.(check (float 1e-9)) "conjunction multiplies" 0.0001
    (Expr.default_selectivity conj)

let test_plan_schema_join () =
  let cat = Helpers.join_catalog () in
  let plan =
    Plan.Join
      {
        left = Plan.Scan "cust";
        right = Plan.Scan "ord";
        left_keys = [ 0 ];
        right_keys = [ 1 ];
      }
  in
  let schema = Plan.schema cat plan in
  Alcotest.(check int) "joined arity" 5 (Array.length schema);
  Alcotest.(check string) "first from left" "cid" schema.(0).Storage.Schema.name;
  Alcotest.(check string) "last from right" "total" schema.(4).Storage.Schema.name

let test_plan_schema_groupby () =
  let cat = Helpers.small_catalog () in
  let plan =
    Plan.Group_by
      {
        child = Plan.Scan "t";
        keys = [ (Expr.Col 1, "grp") ];
        aggs =
          [
            Relalg.Aggregate.make Relalg.Aggregate.Sum ~expr:(Expr.Col 2) "s";
            Relalg.Aggregate.make Relalg.Aggregate.Count_star "c";
          ];
      }
  in
  let schema = Plan.schema cat plan in
  Alcotest.(check (list string)) "output names" [ "grp"; "s"; "c" ]
    (Array.to_list (Array.map (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name) schema))

let test_sql_parse_simple () =
  let cat = Helpers.small_catalog () in
  match Sql.parse cat "select id, name from t where grp = $1" with
  | Plan.Project (Plan.Select (Plan.Scan "t", pred), exprs) ->
      Alcotest.(check int) "two items" 2 (List.length exprs);
      Alcotest.(check (list int)) "pred col" [ 1 ] (Expr.cols pred)
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_parse_star () =
  let cat = Helpers.small_catalog () in
  match Sql.parse cat "select * from t" with
  | Plan.Scan "t" -> ()
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_case_insensitive () =
  let cat = Helpers.small_catalog () in
  (match Sql.parse cat "SELECT ID FROM T WHERE GRP = 1" with
  | Plan.Project (Plan.Select (Plan.Scan "t", _), _) -> ()
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p));
  (* keywords, qualified columns, alias references and GROUP BY in mixed
     case; output names come from the aliases, which stay lower case *)
  List.iter
    (fun mixed ->
      let lower = String.lowercase_ascii mixed in
      let a = Sql.parse cat mixed and b = Sql.parse cat lower in
      if a <> b then
        Alcotest.fail
          (Format.asprintf "%s@.parsed to %a@.but its lower case to %a" mixed
             Plan.pp a Plan.pp b))
    [
      "SeLeCt T.Grp AS g, CoUnT(*) AS n, SUM(t.AMOUNT) total FROM T WHERE \
       t.Score > 1.5 AND Name IS NOT NULL GROUP BY T.GRP ORDER BY TOTAL \
       DESC, N LIMIT 3";
      "SELECT Grp AS g, MAX(Score) AS m FROM t GROUP BY G ORDER BY M";
    ];
  (* a name that only shares a prefix with a column is still unknown *)
  List.iter
    (fun sql ->
      match Sql.parse cat sql with
      | exception Mrdb_util.Errors.Parse_error _ -> ()
      | _ -> Alcotest.fail ("expected an unknown column in " ^ sql))
    [ "select grpx from t"; "select GRPX from t"; "select gr from t";
      "select t.grpx from t" ]

let test_sql_aggregates_and_aliases () =
  let cat = Helpers.small_catalog () in
  let plan =
    Sql.parse cat
      "select grp, count(*) cnt, sum(amount) as total from t group by grp \
       order by total desc limit 3"
  in
  match plan with
  | Plan.Limit
      ( Plan.Sort
          { child = Plan.Project (Plan.Group_by { keys = gkeys; aggs; _ }, _); keys },
        3 ) ->
      Alcotest.(check int) "one group key" 1 (List.length gkeys);
      Alcotest.(check int) "two aggregates" 2 (List.length aggs);
      (match keys with
      | [ (2, Plan.Desc) ] -> ()
      | _ -> Alcotest.fail "expected sort on output column 2 desc")
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_group_by_alias () =
  let cat = Helpers.small_catalog () in
  let plan =
    Sql.parse cat
      "select (amount/10)*10 bucket, count(*) c from t group by bucket"
  in
  match plan with
  | Plan.Project (Plan.Group_by { keys; _ }, _) -> (
      match keys with
      | [ (Expr.Arith (Expr.Mul, _, _), "bucket") ] -> ()
      | _ -> Alcotest.fail "group key should be the aliased expression")
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_join_resolution () =
  let cat = Helpers.join_catalog () in
  let plan =
    Sql.parse cat
      "select region, sum(total) rev from cust join ord on cid = ocid group \
       by region"
  in
  match plan with
  | Plan.Project
      (Plan.Group_by { child = Plan.Join { left_keys; right_keys; _ }; _ }, _)
    ->
      Alcotest.(check (list int)) "left key" [ 0 ] left_keys;
      Alcotest.(check (list int)) "right key" [ 1 ] right_keys
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_join_pushdown () =
  let cat = Helpers.join_catalog () in
  let plan =
    Sql.parse cat
      "select oid from cust join ord on cid = ocid where region = $1 and \
       total > 50"
  in
  (* both predicates reference a single table and must be pushed below the
     join *)
  let rec has_select_above_join = function
    | Plan.Select (Plan.Join _, _) -> true
    | Plan.Select (c, _) | Plan.Project (c, _) | Plan.Limit (c, _) ->
        has_select_above_join c
    | Plan.Sort { child; _ } -> has_select_above_join child
    | Plan.Join { left; right; _ } ->
        has_select_above_join left || has_select_above_join right
    | Plan.Group_by { child; _ } -> has_select_above_join child
    | Plan.Scan _ | Plan.Insert _ | Plan.Update _ -> false
  in
  Alcotest.(check bool) "no residual select above join" false
    (has_select_above_join plan)

let test_sql_insert () =
  let cat = Helpers.small_catalog () in
  match Sql.parse cat "insert into t values (1, 2, 3, 'x', 0.5)" with
  | Plan.Insert { table = "t"; values } ->
      Alcotest.(check int) "five values" 5 (List.length values)
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_string_escapes () =
  let cat = Helpers.small_catalog () in
  match Sql.parse cat "select id from t where name = 'it''s'" with
  | Plan.Project (Plan.Select (_, Expr.Cmp (Expr.Eq, _, Expr.Const (V.VStr s))), _)
    ->
      Alcotest.(check string) "escaped quote" "it's" s
  | p -> Alcotest.fail (Format.asprintf "unexpected plan %a" Plan.pp p)

let test_sql_errors () =
  let cat = Helpers.small_catalog () in
  let expect_failure sql =
    match Sql.parse cat sql with
    | exception Mrdb_util.Errors.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %s" sql)
  in
  expect_failure "select nope from t";
  expect_failure "select id from missing_table";
  expect_failure "select id from t where";
  expect_failure "delete from t";
  expect_failure "select id from t limit x";
  expect_failure "select id from t trailing garbage"

let test_planner_pushes_predicate () =
  let cat = Helpers.small_catalog () in
  let plan =
    Relalg.Planner.plan cat (Sql.parse cat "select id from t where grp = $1")
  in
  match plan with
  | Physical.Project { child = Physical.Scan { post = Some _; _ }; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "predicate not pushed: %a" Physical.pp p)

let test_planner_picks_index () =
  let cat = Helpers.small_catalog () in
  Storage.Catalog.create_index cat "t" ~name:"pk" ~kind:Storage.Index.Hash
    ~attrs:[ "id" ];
  let logical = Sql.parse cat "select * from t where id = $1" in
  (match Relalg.Planner.plan cat logical with
  | Physical.Scan { access = Physical.Index_eq { attrs = [ 0 ]; _ }; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "expected index scan: %a" Physical.pp p));
  match Relalg.Planner.plan ~use_indexes:false cat logical with
  | Physical.Scan { access = Physical.Full_scan; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "expected full scan: %a" Physical.pp p)

let test_planner_range_index () =
  let cat = Helpers.small_catalog () in
  Storage.Catalog.create_index cat "t" ~name:"rb" ~kind:Storage.Index.Rbtree
    ~attrs:[ "id" ];
  let logical = Sql.parse cat "select * from t where id >= $1 and id <= $2" in
  match Relalg.Planner.plan cat logical with
  | Physical.Scan { access = Physical.Index_range { attr = 0; _ }; _ } -> ()
  | p -> Alcotest.fail (Format.asprintf "expected range scan: %a" Physical.pp p)

let test_planner_estimate_override () =
  let cat = Helpers.small_catalog () in
  let logical = Sql.parse cat "select id from t where grp = $1" in
  let plan =
    Relalg.Planner.plan ~estimate:(fun _ -> Some 0.25) cat logical
  in
  match plan with
  | Physical.Project { child = Physical.Scan { sel; _ }; _ } ->
      Alcotest.(check (float 1e-9)) "override used" 0.25 sel
  | p -> Alcotest.fail (Format.asprintf "unexpected: %a" Physical.pp p)

let test_cardinality_estimates () =
  let cat = Helpers.small_catalog ~n:500 () in
  let plan =
    Relalg.Planner.plan ~estimate:(fun _ -> Some 0.1) cat
      (Sql.parse cat "select id from t where grp = $1")
  in
  Alcotest.(check (float 1.0)) "card = sel * n" 50.0
    (Physical.cardinality cat plan)

(* Expressions over a row of a non-null int, a non-null date, a nullable
   int and a string; the first two are typed slots for [Expr.compile]. *)
let expr_gen =
  let open QCheck.Gen in
  let const =
    oneof
      [
        map (fun i -> V.VInt i) (int_range (-5) 5);
        map (fun i -> V.VDate i) (int_range (-5) 5);
        return V.Null;
        map (fun f -> V.VFloat f) (oneofl [ 0.; 0.5; -2. ]);
        map (fun s -> V.VStr s) (oneofl [ ""; "a"; "ab" ]);
      ]
  in
  let leaf =
    oneof
      [
        map (fun i -> Expr.Col i) (int_range 0 3);
        map (fun n -> Expr.Param n) (int_range 1 2);
        map (fun v -> Expr.Const v) const;
      ]
  in
  let cmp = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let arith = oneofl Expr.[ Add; Sub; Mul; Div; Mod ] in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           oneof
             [
               leaf;
               map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp sub sub;
               map3 (fun op a b -> Expr.Arith (op, a, b)) arith sub sub;
               map2 (fun a b -> Expr.And [ a; b ]) sub sub;
               map2 (fun a b -> Expr.Or [ a; b ]) sub sub;
               map (fun a -> Expr.Not a) sub;
               map (fun a -> Expr.IsNull a) sub;
               map
                 (fun p -> Expr.Like (Expr.Col 3, Expr.Const (V.VStr p)))
                 (oneofl [ "a%"; "_"; "%" ]);
             ])

let row_gen =
  let open QCheck.Gen in
  map
    (fun (a, b, c, d) ->
      [| V.VInt a; V.VDate b; (if c = 0 then V.Null else V.VInt c); V.VStr d |])
    (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-2) 2)
       (oneofl [ ""; "a"; "ba" ]))

let qcheck_compile_typed =
  QCheck.Test.make ~count:2000
    ~name:"expr compile over typed slots = specialize, reads in its order"
    (QCheck.make
       ~print:(fun (e, _) -> Expr.to_string e)
       QCheck.Gen.(pair expr_gen row_gen))
    (fun (e, row) ->
      let params = [| V.VInt 2; V.VDate (-1) |] in
      let run f =
        let log = ref [] in
        let read i =
          log := i :: !log;
          row.(i)
        in
        let out = match f read () with v -> Ok v | exception x -> Error x in
        (out, !log)
      in
      let typed read =
        Expr.boxed
          (Expr.compile e ~params (fun i ->
               match row.(i) with
               | V.VInt _ when i = 0 -> Expr.Int ((fun () -> V.to_int (read i)), false)
               | V.VDate _ when i = 1 -> Expr.Int ((fun () -> V.to_int (read i)), true)
               | _ -> Expr.Value (fun () -> read i)))
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> V.type_of a = V.type_of b && V.compare a b = 0
        | Error _, Error _ -> true
        | _ -> false
      in
      let got, got_log = run typed in
      let want, want_log = run (fun read -> Expr.specialize e ~params read) in
      let direct =
        match Expr.eval e ~params (fun i -> row.(i)) with
        | v -> Ok v
        | exception x -> Error x
      in
      same got want && same got direct && got_log = want_log)

let suite =
  [
    Alcotest.test_case "expr arithmetic" `Quick test_expr_arith;
    Alcotest.test_case "expr div by zero" `Quick test_expr_div_by_zero;
    Alcotest.test_case "expr null propagation" `Quick test_expr_null_propagation;
    Alcotest.test_case "expr boolean logic" `Quick test_expr_boolean_logic;
    Alcotest.test_case "expr params" `Quick test_expr_params;
    Alcotest.test_case "expr specialize = eval" `Quick
      test_expr_specialize_matches_eval;
    Alcotest.test_case "expr cols/remap" `Quick test_expr_cols_and_remap;
    Alcotest.test_case "expr default selectivity" `Quick test_default_selectivity;
    Alcotest.test_case "plan join schema" `Quick test_plan_schema_join;
    Alcotest.test_case "plan groupby schema" `Quick test_plan_schema_groupby;
    Alcotest.test_case "sql simple select" `Quick test_sql_parse_simple;
    Alcotest.test_case "sql select star" `Quick test_sql_parse_star;
    Alcotest.test_case "sql case insensitive" `Quick test_sql_case_insensitive;
    Alcotest.test_case "sql aggregates/aliases" `Quick
      test_sql_aggregates_and_aliases;
    Alcotest.test_case "sql group by alias" `Quick test_sql_group_by_alias;
    Alcotest.test_case "sql join resolution" `Quick test_sql_join_resolution;
    Alcotest.test_case "sql join pushdown" `Quick test_sql_join_pushdown;
    Alcotest.test_case "sql insert" `Quick test_sql_insert;
    Alcotest.test_case "sql string escapes" `Quick test_sql_string_escapes;
    Alcotest.test_case "sql errors" `Quick test_sql_errors;
    Alcotest.test_case "planner predicate pushdown" `Quick
      test_planner_pushes_predicate;
    Alcotest.test_case "planner index selection" `Quick test_planner_picks_index;
    Alcotest.test_case "planner range index" `Quick test_planner_range_index;
    Alcotest.test_case "planner estimate override" `Quick
      test_planner_estimate_override;
    Alcotest.test_case "planner cardinality" `Quick test_cardinality_estimates;
    QCheck_alcotest.to_alcotest qcheck_compile_typed;
  ]
