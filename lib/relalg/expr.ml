module Value = Storage.Value

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod

type t =
  | Col of int
  | Param of int
  | Const of Value.t
  | Cmp of cmp * t * t
  | Like of t * t
  | And of t list
  | Or of t list
  | Not of t
  | IsNull of t
  | Arith of arith * t * t

let truthy = function Value.VBool b -> b | _ -> false

let apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.VBool false
  else
    let c = Value.compare a b in
    Value.VBool
      (match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)

let apply_arith op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    match (a, b) with
    | Value.VFloat _, _ | _, Value.VFloat _ ->
        let x = Value.to_float a and y = Value.to_float b in
        Value.VFloat
          (match op with
          | Add -> x +. y
          | Sub -> x -. y
          | Mul -> x *. y
          | Div -> x /. y
          | Mod -> Float.rem x y)
    | _ ->
        let x = Value.to_int a and y = Value.to_int b in
        Value.VInt
          (match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div -> if y = 0 then 0 else x / y
          | Mod -> if y = 0 then 0 else x mod y)

let rec eval t ~params col =
  match t with
  | Col i -> col i
  | Param n ->
      if n < 1 || n > Array.length params then
        invalid_arg (Printf.sprintf "Expr.eval: parameter $%d not bound" n)
      else params.(n - 1)
  | Const v -> v
  | Cmp (op, a, b) -> apply_cmp op (eval a ~params col) (eval b ~params col)
  | Like (e, p) ->
      let pat = eval p ~params col in
      if Value.is_null pat then Value.VBool false
      else Value.VBool (Value.like (eval e ~params col) ~pattern:(Value.to_string_exn pat))
  | And es ->
      Value.VBool (List.for_all (fun e -> truthy (eval e ~params col)) es)
  | Or es -> Value.VBool (List.exists (fun e -> truthy (eval e ~params col)) es)
  | Not e -> Value.VBool (not (truthy (eval e ~params col)))
  | IsNull e -> Value.VBool (Value.is_null (eval e ~params col))
  | Arith (op, a, b) -> apply_arith op (eval a ~params col) (eval b ~params col)

(* Closure compilation: resolve parameters and constants once, and return
   closures free of dispatch on the expression tree.  An operand that is an
   int never NULL (a [VInt], or a [VDate] when [date]) stays unboxed: it is
   boxed only where it meets a value of another kind or leaves the
   expression.  Operands are evaluated right to left, as the application
   [f (fa ()) (fb ())] of the boxed closures evaluates them, so a column read
   through a traced slot is read in the same order on every path. *)
type compiled =
  | Int of (unit -> int) * bool
  | Bool of (unit -> bool)
  | Value of (unit -> Value.t)

let vtrue = Value.VBool true
let vfalse = Value.VBool false

let boxed = function
  | Int (f, true) -> fun () -> Value.VDate (f ())
  | Int (f, false) -> fun () -> Value.VInt (f ())
  | Bool f -> fun () -> if f () then vtrue else vfalse
  | Value f -> f

let truth = function
  | Int (f, _) ->
      fun () ->
        ignore (f ());
        false
  | Bool f -> f
  | Value f -> fun () -> truthy (f ())

let int_cmp op : int -> int -> bool =
  match op with
  | Eq -> fun x y -> x = y
  | Ne -> fun x y -> x <> y
  | Lt -> fun x y -> x < y
  | Le -> fun x y -> x <= y
  | Gt -> fun x y -> x > y
  | Ge -> fun x y -> x >= y

let int_arith op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Mod -> if y = 0 then 0 else x mod y

let compile t ~params col =
  let rec comp t =
    match t with
    | Col i -> col i
    | Param n ->
        if n < 1 || n > Array.length params then
          invalid_arg
            (Printf.sprintf "Expr.specialize: parameter $%d not bound" n)
        else constant params.(n - 1)
    | Const v -> constant v
    | Cmp (op, a, b) -> (
        match (comp a, comp b) with
        | Int (fa, _), Int (fb, _) -> (
            match b with
            | Param _ | Const _ ->
                let y = fb () in
                Bool
                  (match op with
                  | Eq -> fun () -> fa () = y
                  | Ne -> fun () -> fa () <> y
                  | Lt -> fun () -> fa () < y
                  | Le -> fun () -> fa () <= y
                  | Gt -> fun () -> fa () > y
                  | Ge -> fun () -> fa () >= y)
            | _ ->
                let test = int_cmp op in
                Bool
                  (fun () ->
                    let y = fb () in
                    test (fa ()) y))
        | ca, cb ->
            let fa = boxed ca and fb = boxed cb and test = int_cmp op in
            Bool
              (fun () ->
                let y = fb () in
                let x = fa () in
                (not (Value.is_null x || Value.is_null y))
                && test (Value.compare x y) 0))
    | Like (e, p) ->
        let fe = boxed (comp e) and fp = boxed (comp p) in
        Bool
          (fun () ->
            let pat = fp () in
            (not (Value.is_null pat))
            && Value.like (fe ()) ~pattern:(Value.to_string_exn pat))
    | And es -> (
        match List.map (fun e -> truth (comp e)) es with
        | [ a; b ] -> Bool (fun () -> a () && b ())
        | fs -> Bool (fun () -> List.for_all (fun f -> f ()) fs))
    | Or es -> (
        match List.map (fun e -> truth (comp e)) es with
        | [ a; b ] -> Bool (fun () -> a () || b ())
        | fs -> Bool (fun () -> List.exists (fun f -> f ()) fs))
    | Not e ->
        let f = truth (comp e) in
        Bool (fun () -> not (f ()))
    | IsNull e -> (
        match comp e with
        | Int (f, _) ->
            Bool
              (fun () ->
                ignore (f ());
                false)
        | Bool f ->
            Bool
              (fun () ->
                ignore (f ());
                false)
        | Value f -> Bool (fun () -> Value.is_null (f ())))
    | Arith (op, a, b) -> (
        match (comp a, comp b) with
        | Int (fa, _), Int (fb, _) ->
            Int
              ( (fun () ->
                  let y = fb () in
                  int_arith op (fa ()) y),
                false )
        | ca, cb ->
            let fa = boxed ca and fb = boxed cb in
            Value
              (fun () ->
                let y = fb () in
                apply_arith op (fa ()) y))
  and constant = function
    | Value.VInt x -> Int ((fun () -> x), false)
    | Value.VDate x -> Int ((fun () -> x), true)
    | v -> Value (fun () -> v)
  in
  comp t

let specialize t ~params col =
  boxed (compile t ~params (fun i -> Value (fun () -> col i)))

let cols t =
  let acc = ref [] in
  let rec go = function
    | Col i -> acc := i :: !acc
    | Param _ | Const _ -> ()
    | Cmp (_, a, b) | Arith (_, a, b) ->
        go a;
        go b
    | Not e | IsNull e -> go e
    | Like (a, b) ->
        go a;
        go b
    | And es | Or es -> List.iter go es
  in
  go t;
  List.sort_uniq compare !acc

let conjuncts = function And es -> es | e -> [ e ]

let rec remap t f =
  match t with
  | Col i -> Col (f i)
  | Param _ | Const _ -> t
  | Cmp (op, a, b) -> Cmp (op, remap a f, remap b f)
  | Like (a, b) -> Like (remap a f, remap b f)
  | And es -> And (List.map (fun e -> remap e f) es)
  | Or es -> Or (List.map (fun e -> remap e f) es)
  | Not e -> Not (remap e f)
  | IsNull e -> IsNull (remap e f)
  | Arith (op, a, b) -> Arith (op, remap a f, remap b f)

let rec default_selectivity = function
  | Cmp (Eq, _, _) -> 0.01
  | Cmp (Ne, _, _) -> 0.99
  | Cmp ((Lt | Le | Gt | Ge), _, _) -> 0.33
  | Like _ -> 0.05
  | IsNull _ -> 0.05
  | And es -> List.fold_left (fun acc e -> acc *. default_selectivity e) 1.0 es
  | Or es ->
      let p =
        List.fold_left
          (fun acc e -> acc *. (1.0 -. default_selectivity e))
          1.0 es
      in
      1.0 -. p
  | Not e -> 1.0 -. default_selectivity e
  | Col _ | Param _ | Const _ | Arith _ -> 1.0

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let rec pp ppf = function
  | Col i -> Format.fprintf ppf "#%d" i
  | Param n -> Format.fprintf ppf "$%d" n
  | Const v -> Value.pp ppf v
  | Cmp (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_symbol op) pp b
  | Like (a, b) -> Format.fprintf ppf "(%a LIKE %a)" pp a pp b
  | And es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " AND ")
           pp)
        es
  | Or es ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " OR ")
           pp)
        es
  | Not e -> Format.fprintf ppf "(NOT %a)" pp e
  | IsNull e -> Format.fprintf ppf "(%a IS NULL)" pp e
  | Arith (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (arith_symbol op) pp b

let to_string t = Format.asprintf "%a" pp t
