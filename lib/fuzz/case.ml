(* A self-contained differential-testing case: tables (schema + a random
   partial decomposition + generated rows) and an episode of statements
   (queries whose results are compared, and DML that mutates state between
   them).  Cases are plain data so the shrinker can rewrite them and the
   repro printer can emit them as OCaml source. *)

module V = Storage.Value
module Schema = Storage.Schema
module Layout = Storage.Layout
module Plan = Relalg.Plan
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

type col = { cname : string; ty : V.ty; nullable : bool }

type table = {
  tname : string;
  cols : col list;
  groups : int list list; (* the case's random partial decomposition *)
  rows : V.t array list; (* load order *)
}

type statement =
  | Query of Plan.t (* results compared against the oracle *)
  | Exec of Plan.t (* DML: mutates state, only side effects compared *)

type t = {
  seed : int; (* the seed that regenerates this case (pre-shrink) *)
  tables : table list;
  episode : statement list;
  params : V.t array; (* bindings for Expr.Param *)
}

(* Which physical representation to instantiate a table under.  [Pdsm] uses
   the case's own random decomposition; [Nsm]/[Dsm] override it, giving the
   layout axis of the differential matrix.  [Comp] keeps the case's
   decomposition and additionally applies the compression advisor's plan to
   the generated rows — the compressed-execution axis. *)
type layout_mode = Nsm | Dsm | Pdsm | Comp

let layout_mode_name = function
  | Nsm -> "nsm"
  | Dsm -> "dsm"
  | Pdsm -> "pdsm"
  | Comp -> "comp"

let schema_of_table (t : table) : Schema.t =
  Schema.make_nullable t.tname
    (List.map (fun c -> (c.cname, c.ty, c.nullable)) t.cols)

let layout_of_table (t : table) mode =
  let schema = schema_of_table t in
  match mode with
  | Nsm -> Layout.row schema
  | Dsm -> Layout.column schema
  | Pdsm | Comp -> Layout.of_indices schema t.groups

let find_table t name = List.find (fun tab -> tab.tname = name) t.tables

(* Mimic the storage round-trip of [Buffer.write_value]/[read_value]: ints
   and dates collapse to their numeric value and come back typed by the
   column, floats coerce, varchars truncate to the field width and lose any
   NUL tail.  The oracle applies this on every store so its world matches
   what engines read back. *)
let coerce ty v =
  if V.is_null v then V.Null
  else
    match (ty : V.ty) with
    | V.Int -> V.VInt (V.to_int v)
    | V.Date -> V.VDate (V.to_int v)
    | V.Float -> V.VFloat (V.to_float v)
    | V.Bool -> V.VBool (V.to_int v <> 0)
    | V.Varchar n ->
        let s = V.to_string_exn v in
        let s = if String.length s > n then String.sub s 0 n else s in
        V.VStr
          (match String.index_opt s '\000' with
          | Some i -> String.sub s 0 i
          | None -> s)

let total_rows t =
  List.fold_left (fun acc tab -> acc + List.length tab.rows) 0 t.tables

(* ------------------------------------------------------------------ *)
(* Repro emission: print a case back as OCaml source                    *)
(* ------------------------------------------------------------------ *)

let ocaml_string s = Printf.sprintf "%S" s

let ocaml_value = function
  | V.Null -> "V.Null"
  | V.VInt i -> Printf.sprintf "V.VInt (%d)" i
  | V.VFloat f -> Printf.sprintf "V.VFloat (%h)" f
  | V.VBool b -> Printf.sprintf "V.VBool %b" b
  | V.VDate d -> Printf.sprintf "V.VDate (%d)" d
  | V.VStr s -> Printf.sprintf "V.VStr %s" (ocaml_string s)

let ocaml_ty = function
  | V.Int -> "V.Int"
  | V.Float -> "V.Float"
  | V.Bool -> "V.Bool"
  | V.Date -> "V.Date"
  | V.Varchar n -> Printf.sprintf "V.Varchar %d" n

let ocaml_cmp = function
  | Expr.Eq -> "Expr.Eq"
  | Expr.Ne -> "Expr.Ne"
  | Expr.Lt -> "Expr.Lt"
  | Expr.Le -> "Expr.Le"
  | Expr.Gt -> "Expr.Gt"
  | Expr.Ge -> "Expr.Ge"

let ocaml_arith = function
  | Expr.Add -> "Expr.Add"
  | Expr.Sub -> "Expr.Sub"
  | Expr.Mul -> "Expr.Mul"
  | Expr.Div -> "Expr.Div"
  | Expr.Mod -> "Expr.Mod"

let rec ocaml_expr = function
  | Expr.Col i -> Printf.sprintf "Expr.Col %d" i
  | Expr.Param n -> Printf.sprintf "Expr.Param %d" n
  | Expr.Const v -> Printf.sprintf "Expr.Const (%s)" (ocaml_value v)
  | Expr.Cmp (op, a, b) ->
      Printf.sprintf "Expr.Cmp (%s, %s, %s)" (ocaml_cmp op) (ocaml_expr a)
        (ocaml_expr b)
  | Expr.Like (a, b) ->
      Printf.sprintf "Expr.Like (%s, %s)" (ocaml_expr a) (ocaml_expr b)
  | Expr.And es ->
      Printf.sprintf "Expr.And [%s]" (String.concat "; " (List.map ocaml_expr es))
  | Expr.Or es ->
      Printf.sprintf "Expr.Or [%s]" (String.concat "; " (List.map ocaml_expr es))
  | Expr.Not e -> Printf.sprintf "Expr.Not (%s)" (ocaml_expr e)
  | Expr.IsNull e -> Printf.sprintf "Expr.IsNull (%s)" (ocaml_expr e)
  | Expr.Arith (op, a, b) ->
      Printf.sprintf "Expr.Arith (%s, %s, %s)" (ocaml_arith op) (ocaml_expr a)
        (ocaml_expr b)

let ocaml_agg (a : Aggregate.t) =
  let func =
    match a.Aggregate.func with
    | Aggregate.Count_star -> "Aggregate.Count_star"
    | Aggregate.Count -> "Aggregate.Count"
    | Aggregate.Sum -> "Aggregate.Sum"
    | Aggregate.Min -> "Aggregate.Min"
    | Aggregate.Max -> "Aggregate.Max"
    | Aggregate.Avg -> "Aggregate.Avg"
  in
  match a.Aggregate.expr with
  | None -> Printf.sprintf "Aggregate.make %s %S" func a.Aggregate.name
  | Some e ->
      Printf.sprintf "Aggregate.make %s ~expr:(%s) %S" func (ocaml_expr e)
        a.Aggregate.name

let ocaml_named_exprs exprs =
  String.concat "; "
    (List.map
       (fun (e, n) -> Printf.sprintf "(%s, %S)" (ocaml_expr e) n)
       exprs)

let rec ocaml_plan = function
  | Plan.Scan name -> Printf.sprintf "Plan.Scan %S" name
  | Plan.Select (c, p) ->
      Printf.sprintf "Plan.Select (%s, %s)" (ocaml_plan c) (ocaml_expr p)
  | Plan.Project (c, exprs) ->
      Printf.sprintf "Plan.Project (%s, [%s])" (ocaml_plan c)
        (ocaml_named_exprs exprs)
  | Plan.Join { left; right; left_keys; right_keys } ->
      Printf.sprintf
        "Plan.Join { left = %s; right = %s; left_keys = [%s]; right_keys = \
         [%s] }"
        (ocaml_plan left) (ocaml_plan right)
        (String.concat "; " (List.map string_of_int left_keys))
        (String.concat "; " (List.map string_of_int right_keys))
  | Plan.Group_by { child; keys; aggs } ->
      Printf.sprintf
        "Plan.Group_by { child = %s; keys = [%s]; aggs = [%s] }"
        (ocaml_plan child) (ocaml_named_exprs keys)
        (String.concat "; " (List.map ocaml_agg aggs))
  | Plan.Sort { child; keys } ->
      Printf.sprintf "Plan.Sort { child = %s; keys = [%s] }" (ocaml_plan child)
        (String.concat "; "
           (List.map
              (fun (i, d) ->
                Printf.sprintf "(%d, Plan.%s)" i
                  (match d with Plan.Asc -> "Asc" | Plan.Desc -> "Desc"))
              keys))
  | Plan.Limit (c, n) -> Printf.sprintf "Plan.Limit (%s, %d)" (ocaml_plan c) n
  | Plan.Insert { table; values } ->
      Printf.sprintf "Plan.Insert { table = %S; values = [%s] }" table
        (String.concat "; " (List.map ocaml_expr values))
  | Plan.Update { table; assignments; pred } ->
      Printf.sprintf
        "Plan.Update { table = %S; assignments = [%s]; pred = %s }" table
        (String.concat "; "
           (List.map
              (fun (a, e) -> Printf.sprintf "(%d, %s)" a (ocaml_expr e))
              assignments))
        (match pred with
        | None -> "None"
        | Some p -> Printf.sprintf "Some (%s)" (ocaml_expr p))

let ocaml_statement = function
  | Query p -> Printf.sprintf "Case.Query (%s)" (ocaml_plan p)
  | Exec p -> Printf.sprintf "Case.Exec (%s)" (ocaml_plan p)

let ocaml_col c =
  Printf.sprintf "{ Case.cname = %S; ty = %s; nullable = %b }" c.cname
    (ocaml_ty c.ty) c.nullable

let ocaml_table (t : table) =
  let rows =
    String.concat ";\n        "
      (List.map
         (fun row ->
           Printf.sprintf "[| %s |]"
             (String.concat "; " (Array.to_list (Array.map ocaml_value row))))
         t.rows)
  in
  Printf.sprintf
    "{ Case.tname = %S;\n\
    \      cols = [ %s ];\n\
    \      groups = [ %s ];\n\
    \      rows = [ %s ] }"
    t.tname
    (String.concat ";\n               " (List.map ocaml_col t.cols))
    (String.concat "; "
       (List.map
          (fun g ->
            Printf.sprintf "[ %s ]"
              (String.concat "; " (List.map string_of_int g)))
          t.groups))
    rows

(* A compilable snippet reconstructing the case; pasteable into
   test/fuzz_corpus.ml next to the existing repros. *)
let to_ocaml (t : t) =
  Printf.sprintf
    "(* repro: seed %d, %d rows *)\n\
     let case =\n\
    \  let open Relalg in\n\
    \  let module V = Storage.Value in\n\
    \  { Case.seed = %d;\n\
    \    params = [| %s |];\n\
    \    tables =\n\
    \      [ %s ];\n\
    \    episode =\n\
    \      [ %s ] }\n"
    t.seed (total_rows t) t.seed
    (String.concat "; " (Array.to_list (Array.map ocaml_value t.params)))
    (String.concat ";\n        " (List.map ocaml_table t.tables))
    (String.concat ";\n        " (List.map ocaml_statement t.episode))
