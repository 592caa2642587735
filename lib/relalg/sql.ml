module Value = Storage.Value
module Schema = Storage.Schema

let fail fmt =
  Printf.ksprintf (fun s -> raise (Mrdb_util.Errors.Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STR of string
  | PARAM of int
  | PUNCT of string
  | EOF

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && ((src.[!i] >= '0' && src.[!i] <= '9') || src.[!i] = '.') do
        incr i
      done;
      let s = String.sub src start (!i - start) in
      if String.contains s '.' then push (FLOAT (float_of_string s))
      else push (INT (int_of_string s))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      push (IDENT (String.sub src start (!i - start)))
    end
    else if c = '\'' then begin
      incr i;
      let b = Buffer.create 8 in
      let closed = ref false in
      while !i < n && not !closed do
        if src.[!i] = '\'' then
          if !i + 1 < n && src.[!i + 1] = '\'' then begin
            Buffer.add_char b '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char b src.[!i];
          incr i
        end
      done;
      if not !closed then fail "unterminated string literal";
      push (STR (Buffer.contents b))
    end
    else if c = '$' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
      if !i = start then fail "expected parameter number after $";
      push (PARAM (int_of_string (String.sub src start (!i - start))))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
          push (PUNCT two);
          i := !i + 2
      | _ ->
          (match c with
          | '(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' | '+' | '-' | '/'
          | '%' | ';' ->
              push (PUNCT (String.make 1 c))
          | _ -> fail "unexpected character %C" c);
          incr i
    end
  done;
  push EOF;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Token stream                                                       *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : token list }

let peek s = match s.toks with [] -> EOF | t :: _ -> t
let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let next s =
  let t = peek s in
  advance s;
  t

(* ASCII case-insensitive equality, without lowercased copies: name
   resolution calls it for every column of every table in scope. *)
let rec kw_eq_from a b i =
  i = String.length a
  || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i]
     && kw_eq_from a b (i + 1)

let kw_eq a b = String.length a = String.length b && kw_eq_from a b 0

let peek_kw s kw = match peek s with IDENT id -> kw_eq id kw | _ -> false

let accept_kw s kw =
  if peek_kw s kw then begin
    advance s;
    true
  end
  else false

let expect_kw s kw =
  if not (accept_kw s kw) then
    fail "expected keyword %s" (String.uppercase_ascii kw)

let accept_punct s p =
  match peek s with
  | PUNCT q when String.equal q p ->
      advance s;
      true
  | _ -> false

let expect_punct s p = if not (accept_punct s p) then fail "expected %S" p

let expect_ident s =
  match next s with IDENT id -> id | _ -> fail "expected identifier"

(* ------------------------------------------------------------------ *)
(* Raw AST (before name resolution)                                   *)
(* ------------------------------------------------------------------ *)

type raw_expr =
  | RCol of string option * string (* qualifier, column name *)
  | RConst of Value.t
  | RParam of int
  | RCmp of Expr.cmp * raw_expr * raw_expr
  | RLike of raw_expr * raw_expr
  | RAnd of raw_expr * raw_expr
  | ROr of raw_expr * raw_expr
  | RNot of raw_expr
  | RIsNull of raw_expr * bool (* negated? *)
  | RArith of Expr.arith * raw_expr * raw_expr
  | RAgg of Aggregate.func * raw_expr option

let agg_func_of_name name =
  match String.lowercase_ascii name with
  | "count" -> Some Aggregate.Count
  | "sum" -> Some Aggregate.Sum
  | "min" -> Some Aggregate.Min
  | "max" -> Some Aggregate.Max
  | "avg" -> Some Aggregate.Avg
  | _ -> None

let is_keyword id =
  List.exists (kw_eq id)
    [
      "select"; "from"; "where"; "group"; "by"; "order"; "limit"; "insert";
      "into"; "values"; "and"; "or"; "not"; "like"; "is"; "null"; "as";
      "join"; "on"; "asc"; "desc"; "update"; "set";
    ]

let rec parse_expr s = parse_or s

and parse_or s =
  let left = parse_and s in
  if accept_kw s "or" then ROr (left, parse_or s) else left

and parse_and s =
  let left = parse_not s in
  if accept_kw s "and" then RAnd (left, parse_and s) else left

and parse_not s =
  if accept_kw s "not" then RNot (parse_not s) else parse_predicate s

and parse_predicate s =
  let left = parse_additive s in
  match peek s with
  | PUNCT "=" ->
      advance s;
      RCmp (Expr.Eq, left, parse_additive s)
  | PUNCT ("<>" | "!=") ->
      advance s;
      RCmp (Expr.Ne, left, parse_additive s)
  | PUNCT "<" ->
      advance s;
      RCmp (Expr.Lt, left, parse_additive s)
  | PUNCT "<=" ->
      advance s;
      RCmp (Expr.Le, left, parse_additive s)
  | PUNCT ">" ->
      advance s;
      RCmp (Expr.Gt, left, parse_additive s)
  | PUNCT ">=" ->
      advance s;
      RCmp (Expr.Ge, left, parse_additive s)
  | IDENT id when kw_eq id "like" ->
      advance s;
      RLike (left, parse_additive s)
  | IDENT id when kw_eq id "is" ->
      advance s;
      let negated = accept_kw s "not" in
      expect_kw s "null";
      RIsNull (left, negated)
  | _ -> left

and parse_additive s =
  let left = ref (parse_multiplicative s) in
  let continue = ref true in
  while !continue do
    if accept_punct s "+" then
      left := RArith (Expr.Add, !left, parse_multiplicative s)
    else if accept_punct s "-" then
      left := RArith (Expr.Sub, !left, parse_multiplicative s)
    else continue := false
  done;
  !left

and parse_multiplicative s =
  let left = ref (parse_atom s) in
  let continue = ref true in
  while !continue do
    if accept_punct s "*" then left := RArith (Expr.Mul, !left, parse_atom s)
    else if accept_punct s "/" then left := RArith (Expr.Div, !left, parse_atom s)
    else if accept_punct s "%" then left := RArith (Expr.Mod, !left, parse_atom s)
    else continue := false
  done;
  !left

and parse_atom s =
  match next s with
  | INT v -> RConst (Value.VInt v)
  | FLOAT v -> RConst (Value.VFloat v)
  | STR v -> RConst (Value.VStr v)
  | PARAM n -> RParam n
  | PUNCT "(" ->
      let e = parse_expr s in
      expect_punct s ")";
      e
  | PUNCT "-" -> RArith (Expr.Sub, RConst (Value.VInt 0), parse_atom s)
  | IDENT id when kw_eq id "null" -> RConst Value.Null
  | IDENT id when kw_eq id "true" -> RConst (Value.VBool true)
  | IDENT id when kw_eq id "false" -> RConst (Value.VBool false)
  | IDENT id -> (
      match peek s with
      | PUNCT "(" -> (
          match agg_func_of_name id with
          | Some func ->
              advance s;
              if accept_punct s "*" then begin
                expect_punct s ")";
                if func <> Aggregate.Count then fail "only count(*) is allowed";
                RAgg (Aggregate.Count_star, None)
              end
              else begin
                let arg = parse_expr s in
                expect_punct s ")";
                RAgg (func, Some arg)
              end
          | None -> fail "unknown function %s" id)
      | PUNCT "." ->
          advance s;
          let col = expect_ident s in
          RCol (Some id, col)
      | _ ->
          if is_keyword id then fail "unexpected keyword %s" id
          else RCol (None, id))
  | EOF -> fail "unexpected end of query"
  | PUNCT p -> fail "unexpected %S" p

(* ------------------------------------------------------------------ *)
(* Statement grammar                                                  *)
(* ------------------------------------------------------------------ *)

type sel_item = { raw : raw_expr; alias : string option }
type order_item = { target : string; dir : Plan.dir }

type select_stmt = {
  items : sel_item list;
  star : bool;
  base_table : string;
  joins : (string * (string option * string) * (string option * string)) list;
  where : raw_expr option;
  group_by : raw_expr list;
  order_by : order_item list;
  limit : int option;
}

let parse_select_stmt s =
  let items = ref [] in
  let star = ref false in
  if accept_punct s "*" then star := true
  else begin
    let rec loop () =
      let raw = parse_expr s in
      let alias =
        if accept_kw s "as" then Some (expect_ident s)
        else
          match peek s with
          | IDENT id when not (is_keyword id) ->
              advance s;
              Some id
          | _ -> None
      in
      items := { raw; alias } :: !items;
      if accept_punct s "," then loop ()
    in
    loop ()
  end;
  expect_kw s "from";
  let base_table = expect_ident s in
  let joins = ref [] in
  while accept_kw s "join" do
    let jt = expect_ident s in
    expect_kw s "on";
    let parse_qcol () =
      let a = expect_ident s in
      if accept_punct s "." then (Some a, expect_ident s) else (None, a)
    in
    let l = parse_qcol () in
    expect_punct s "=";
    let r = parse_qcol () in
    joins := (jt, l, r) :: !joins
  done;
  let where = if accept_kw s "where" then Some (parse_expr s) else None in
  let group_by =
    if accept_kw s "group" then begin
      expect_kw s "by";
      let keys = ref [ parse_expr s ] in
      while accept_punct s "," do
        keys := parse_expr s :: !keys
      done;
      List.rev !keys
    end
    else []
  in
  let order_by =
    if accept_kw s "order" then begin
      expect_kw s "by";
      let one () =
        let target = expect_ident s in
        let dir =
          if accept_kw s "desc" then Plan.Desc
          else begin
            ignore (accept_kw s "asc");
            Plan.Asc
          end
        in
        { target; dir }
      in
      let os = ref [ one () ] in
      while accept_punct s "," do
        os := one () :: !os
      done;
      List.rev !os
    end
    else []
  in
  let limit =
    if accept_kw s "limit" then
      match next s with
      | INT n -> Some n
      | _ -> fail "expected integer after LIMIT"
    else None
  in
  ignore (accept_punct s ";");
  (match peek s with EOF -> () | _ -> fail "trailing input after query");
  {
    items = List.rev !items;
    star = !star;
    base_table;
    joins = List.rev !joins;
    where;
    group_by;
    order_by;
    limit;
  }

(* ------------------------------------------------------------------ *)
(* Name resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* environment entry: (lowercase table name, column name, position) *)
type env = (string * string * int) list

(* resolve a table name case-insensitively against the catalog *)
let find_table cat name =
  try Storage.Catalog.find cat name
  with Mrdb_util.Errors.Unknown_table _ -> (
    match
      List.find_opt (fun n -> kw_eq n name) (Storage.Catalog.names cat)
    with
    | Some n -> Storage.Catalog.find cat n
    | None -> fail "unknown table %s" name)

let table_name cat name =
  (Storage.Relation.schema (find_table cat name)).Schema.name

let env_of_table cat name offset : env =
  let rel = find_table cat name in
  let schema = Storage.Relation.schema rel in
  List.init (Schema.arity schema) (fun i ->
      ( String.lowercase_ascii name,
        (Schema.attr schema i).Schema.name,
        offset + i ))

let resolve_col (env : env) qualifier name =
  let matches =
    List.filter
      (fun (tbl, col, _) ->
        kw_eq col name
        && match qualifier with Some q -> kw_eq q tbl | None -> true)
      env
  in
  match matches with
  | [ (_, _, pos) ] -> pos
  | [] -> fail "unknown column %s" name
  | _ -> fail "ambiguous column %s" name

let rec resolve env raw : Expr.t =
  match raw with
  | RCol (q, name) -> Expr.Col (resolve_col env q name)
  | RConst v -> Expr.Const v
  | RParam n -> Expr.Param n
  | RCmp (op, a, b) -> Expr.Cmp (op, resolve env a, resolve env b)
  | RLike (a, b) -> Expr.Like (resolve env a, resolve env b)
  | RAnd (a, b) ->
      Expr.And (Expr.conjuncts (resolve env a) @ Expr.conjuncts (resolve env b))
  | ROr (a, b) -> Expr.Or [ resolve env a; resolve env b ]
  | RNot a -> Expr.Not (resolve env a)
  | RIsNull (a, negated) ->
      let e = Expr.IsNull (resolve env a) in
      if negated then Expr.Not e else e
  | RArith (op, a, b) -> Expr.Arith (op, resolve env a, resolve env b)
  | RAgg _ -> fail "aggregate not allowed in this context"

let rec contains_agg = function
  | RAgg _ -> true
  | RCol _ | RConst _ | RParam _ -> false
  | RCmp (_, a, b) | RLike (a, b) | RAnd (a, b) | ROr (a, b) | RArith (_, a, b)
    ->
      contains_agg a || contains_agg b
  | RNot a | RIsNull (a, _) -> contains_agg a

let rec raw_equal a b =
  match (a, b) with
  | RCol (q1, n1), RCol (q2, n2) ->
      kw_eq n1 n2
      && (match (q1, q2) with
         | Some x, Some y -> kw_eq x y
         | None, _ | _, None -> true)
  | RConst v1, RConst v2 -> Value.equal v1 v2
  | RParam n1, RParam n2 -> n1 = n2
  | RCmp (o1, a1, b1), RCmp (o2, a2, b2) ->
      o1 = o2 && raw_equal a1 a2 && raw_equal b1 b2
  | RArith (o1, a1, b1), RArith (o2, a2, b2) ->
      o1 = o2 && raw_equal a1 a2 && raw_equal b1 b2
  | RLike (a1, b1), RLike (a2, b2)
  | RAnd (a1, b1), RAnd (a2, b2)
  | ROr (a1, b1), ROr (a2, b2) ->
      raw_equal a1 a2 && raw_equal b1 b2
  | RNot a1, RNot a2 -> raw_equal a1 a2
  | RIsNull (a1, n1), RIsNull (a2, n2) -> n1 = n2 && raw_equal a1 a2
  | RAgg (f1, e1), RAgg (f2, e2) -> (
      f1 = f2
      &&
      match (e1, e2) with
      | None, None -> true
      | Some x, Some y -> raw_equal x y
      | _ -> false)
  | _ -> false

let default_name i raw =
  match raw with
  | RCol (_, name) -> name
  | RAgg (f, _) -> (
      match f with
      | Aggregate.Count_star | Aggregate.Count -> "count"
      | Aggregate.Sum -> "sum"
      | Aggregate.Min -> "min"
      | Aggregate.Max -> "max"
      | Aggregate.Avg -> "avg")
  | _ -> Printf.sprintf "col%d" i

(* ------------------------------------------------------------------ *)
(* Plan construction                                                  *)
(* ------------------------------------------------------------------ *)

let build_from_where cat stmt : Plan.t * env =
  let where_conjuncts =
    match stmt.where with
    | None -> []
    | Some w ->
        let rec flat = function RAnd (a, b) -> flat a @ flat b | e -> [ e ] in
        flat w
  in
  let table_envs =
    (stmt.base_table, env_of_table cat stmt.base_table 0)
    :: List.map (fun (t, _, _) -> (t, env_of_table cat t 0)) stmt.joins
  in
  (* tables whose columns a raw expression references *)
  let rec touched acc = function
    | RCol (q, name) ->
        let owners =
          List.filter_map
            (fun (t, env) ->
              let found =
                List.exists
                  (fun (tbl, col, _) ->
                    kw_eq col name
                    && match q with Some qq -> kw_eq qq tbl | None -> true)
                  env
              in
              if found then Some t else None)
            table_envs
        in
        owners @ acc
    | RConst _ | RParam _ -> acc
    | RCmp (_, a, b) | RLike (a, b) | RAnd (a, b) | ROr (a, b)
    | RArith (_, a, b) ->
        touched (touched acc a) b
    | RNot a | RIsNull (a, _) -> touched acc a
    | RAgg (_, Some a) -> touched acc a
    | RAgg (_, None) -> acc
  in
  let single_table_of raw =
    match List.sort_uniq compare (touched [] raw) with
    | [ t ] -> Some t
    | _ -> None
  in
  let pushed : (string, raw_expr list) Hashtbl.t = Hashtbl.create 8 in
  let residual = ref [] in
  List.iter
    (fun conj ->
      match single_table_of conj with
      | Some t when stmt.joins <> [] ->
          let prev = try Hashtbl.find pushed t with Not_found -> [] in
          Hashtbl.replace pushed t (conj :: prev)
      | _ -> residual := conj :: !residual)
    where_conjuncts;
  let table_plan name =
    let env = env_of_table cat name 0 in
    let canonical = table_name cat name in
    match Hashtbl.find_opt pushed name with
    | Some conjs ->
        let exprs = List.map (resolve env) (List.rev conjs) in
        let pred = match exprs with [ e ] -> e | es -> Expr.And es in
        Plan.Select (Plan.Scan canonical, pred)
    | None -> Plan.Scan canonical
  in
  let plan = ref (table_plan stmt.base_table) in
  let env = ref (env_of_table cat stmt.base_table 0) in
  List.iter
    (fun (jt, (lq, lc), (rq, rc)) ->
      let right_local = env_of_table cat jt 0 in
      let find_in e q c =
        try Some (resolve_col e q c) with Mrdb_util.Errors.Parse_error _ -> None
      in
      let lpos, rpos =
        match (find_in !env lq lc, find_in right_local rq rc) with
        | Some l, Some r -> (l, r)
        | _ -> (
            match (find_in !env rq rc, find_in right_local lq lc) with
            | Some l, Some r -> (l, r)
            | _ -> fail "cannot resolve join condition %s = %s" lc rc)
      in
      let offset = List.length !env in
      plan :=
        Plan.Join
          {
            left = !plan;
            right = table_plan jt;
            left_keys = [ lpos ];
            right_keys = [ rpos ];
          };
      env := !env @ env_of_table cat jt offset)
    stmt.joins;
  (match List.rev !residual with
  | [] -> ()
  | conjs ->
      let exprs = List.map (resolve !env) conjs in
      let pred = match exprs with [ e ] -> e | es -> Expr.And es in
      plan := Plan.Select (!plan, pred));
  (!plan, !env)

let build_select cat stmt : Plan.t =
  let base, env = build_from_where cat stmt in
  let has_agg = List.exists (fun it -> contains_agg it.raw) stmt.items in
  let plan, out_names =
    if (not has_agg) && stmt.group_by = [] then
      if stmt.star then (base, List.map (fun (_, c, _) -> c) env)
      else begin
        let exprs =
          List.mapi
            (fun i it ->
              let name =
                match it.alias with
                | Some a -> a
                | None -> default_name i it.raw
              in
              (resolve env it.raw, name))
            stmt.items
        in
        (Plan.Project (base, exprs), List.map snd exprs)
      end
    else begin
      if stmt.star then fail "SELECT * cannot be combined with aggregates";
      (* resolve a GROUP BY item, allowing references to select aliases *)
      let dealias g =
        match g with
        | RCol (None, name) -> (
            match
              List.find_opt
                (fun it ->
                  match it.alias with Some a -> kw_eq a name | None -> false)
                stmt.items
            with
            | Some it when not (contains_agg it.raw) -> it.raw
            | _ -> g)
        | _ -> g
      in
      let group_raws = List.map dealias stmt.group_by in
      let keys =
        List.mapi
          (fun i g ->
            let name =
              match
                List.find_opt (fun it -> raw_equal it.raw g) stmt.items
              with
              | Some { alias = Some a; _ } -> a
              | _ -> (
                  match g with
                  | RCol (_, n) -> n
                  | _ -> Printf.sprintf "key%d" i)
            in
            (g, (resolve env g, name)))
          group_raws
      in
      let n_keys = List.length keys in
      let aggs = ref [] in
      (* map each select item to a column of the group-by output *)
      let projections =
        List.mapi
          (fun i it ->
            let name =
              match it.alias with Some a -> a | None -> default_name i it.raw
            in
            match it.raw with
            | RAgg (func, arg) ->
                let agg =
                  match arg with
                  | Some a -> Aggregate.make func ~expr:(resolve env a) name
                  | None -> Aggregate.make func name
                in
                aggs := !aggs @ [ agg ];
                (Expr.Col (n_keys + List.length !aggs - 1), name)
            | raw -> (
                let rec find i = function
                  | [] -> fail "select item %s is not in GROUP BY" name
                  | (g, _) :: rest ->
                      if raw_equal g raw then i else find (i + 1) rest
                in
                let ki = find 0 keys in
                (Expr.Col ki, name)))
          stmt.items
      in
      let gb =
        Plan.Group_by { child = base; keys = List.map snd keys; aggs = !aggs }
      in
      (Plan.Project (gb, projections), List.map snd projections)
    end
  in
  let plan =
    match stmt.order_by with
    | [] -> plan
    | items -> (
        let pos_of name =
          let rec go i = function
            | [] -> None
            | n :: rest -> if kw_eq n name then Some i else go (i + 1) rest
          in
          go 0 out_names
        in
        let resolved = List.map (fun o -> (o, pos_of o.target)) items in
        if List.for_all (fun (_, p) -> p <> None) resolved then
          Plan.Sort
            {
              child = plan;
              keys =
                List.map (fun (o, p) -> (Option.get p, o.dir)) resolved;
            }
        else
          (* SQL permits ordering by base-table columns that are not in the
             select list; implement it with hidden sort columns: extend the
             projection, sort, then project the visible prefix back out *)
          match plan with
          | Plan.Project (base, exprs) when (not has_agg) && stmt.group_by = []
            ->
              let visible = List.length exprs in
              let hidden = ref [] in
              let keys =
                List.map
                  (fun (o, p) ->
                    match p with
                    | Some p -> (p, o.dir)
                    | None ->
                        let e = resolve env (RCol (None, o.target)) in
                        hidden := !hidden @ [ (e, "__sort_" ^ o.target) ];
                        (visible + List.length !hidden - 1, o.dir))
                  resolved
              in
              let widened = Plan.Project (base, exprs @ !hidden) in
              let sorted = Plan.Sort { child = widened; keys } in
              Plan.Project
                ( sorted,
                  List.mapi (fun i (_, name) -> (Expr.Col i, name)) exprs )
          | _ ->
              let missing =
                List.filter_map
                  (fun (o, p) -> if p = None then Some o.target else None)
                  resolved
              in
              fail "ORDER BY references unknown column %s"
                (String.concat ", " missing))
  in
  match stmt.limit with None -> plan | Some n -> Plan.Limit (plan, n)

let parse_insert s =
  expect_kw s "into";
  let table = expect_ident s in
  expect_kw s "values";
  expect_punct s "(";
  let values = ref [ parse_expr s ] in
  while accept_punct s "," do
    values := parse_expr s :: !values
  done;
  expect_punct s ")";
  ignore (accept_punct s ";");
  (match peek s with EOF -> () | _ -> fail "trailing input after statement");
  (table, List.rev !values)

let parse_update s =
  let table = expect_ident s in
  expect_kw s "set";
  let one () =
    let col = expect_ident s in
    expect_punct s "=";
    let e = parse_expr s in
    (col, e)
  in
  let assigns = ref [ one () ] in
  while accept_punct s "," do
    assigns := one () :: !assigns
  done;
  let where = if accept_kw s "where" then Some (parse_expr s) else None in
  ignore (accept_punct s ";");
  (match peek s with EOF -> () | _ -> fail "trailing input after statement");
  (table, List.rev !assigns, where)

let parse cat src =
  let s = { toks = tokenize src } in
  if accept_kw s "select" then build_select cat (parse_select_stmt s)
  else if accept_kw s "insert" then begin
    let table, raw_values = parse_insert s in
    let values = List.map (resolve []) raw_values in
    Plan.Insert { table = table_name cat table; values }
  end
  else if accept_kw s "update" then begin
    let table, raw_assigns, where = parse_update s in
    let env = env_of_table cat table 0 in
    let assignments =
      List.map
        (fun (col, raw) -> (resolve_col env None col, resolve env raw))
        raw_assigns
    in
    Plan.Update
      {
        table = table_name cat table;
        assignments;
        pred = Option.map (resolve env) where;
      }
  end
  else fail "expected SELECT, INSERT or UPDATE"
