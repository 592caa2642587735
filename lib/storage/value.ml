type ty = Int | Float | Bool | Date | Varchar of int

type t =
  | Null
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VDate of int
  | VStr of string

let data_width = function
  | Int | Float | Date -> 8
  | Bool -> 1
  | Varchar n -> n

let type_of = function
  | Null -> None
  | VInt _ -> Some Int
  | VFloat _ -> Some Float
  | VBool _ -> Some Bool
  | VDate _ -> Some Date
  | VStr s -> Some (Varchar (String.length s))

let is_null = function Null -> true | _ -> false

let rank = function
  | Null -> 0
  | VBool _ -> 1
  | VInt _ -> 2
  | VFloat _ -> 3
  | VDate _ -> 4
  | VStr _ -> 5

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | VInt x, VInt y -> Stdlib.compare x y
  | VFloat x, VFloat y -> Stdlib.compare x y
  | VInt x, VFloat y -> Stdlib.compare (float_of_int x) y
  | VFloat x, VInt y -> Stdlib.compare x (float_of_int y)
  | VBool x, VBool y -> Stdlib.compare x y
  | VDate x, VDate y -> Stdlib.compare x y
  (* dates are day numbers: comparable with integer literals/parameters *)
  | VDate x, VInt y | VInt x, VDate y -> Stdlib.compare x y
  | VStr x, VStr y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let to_int = function
  | VInt x -> x
  | VBool b -> if b then 1 else 0
  | VDate d -> d
  | VFloat f -> int_of_float f
  | v ->
      invalid_arg
        (Format.asprintf "Value.to_int: not numeric (%s)"
           (match v with Null -> "null" | VStr _ -> "string" | _ -> "?"))

let to_float = function
  | VFloat f -> f
  | VInt x -> float_of_int x
  | VDate d -> float_of_int d
  | VBool b -> if b then 1.0 else 0.0
  | _ -> invalid_arg "Value.to_float: not numeric"

let to_string_exn = function
  | VStr s -> s
  | _ -> invalid_arg "Value.to_string_exn: not a string"

(* SQL LIKE: '%' matches any run, '_' matches one char. *)
let like v ~pattern =
  match v with
  | VStr s ->
      let np = String.length pattern and ns = String.length s in
      (* memoized recursive matcher *)
      let memo = Hashtbl.create 16 in
      let rec go pi si =
        if pi = np then si = ns
        else
          let key = (pi * (ns + 1)) + si in
          match Hashtbl.find_opt memo key with
          | Some r -> r
          | None ->
              let r =
                match pattern.[pi] with
                | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
                | '_' -> si < ns && go (pi + 1) (si + 1)
                | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
              in
              Hashtbl.add memo key r;
              r
      in
      go 0 0
  | _ -> false

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | VInt x -> Format.pp_print_int ppf x
  | VFloat f -> Format.fprintf ppf "%g" f
  | VBool b -> Format.pp_print_bool ppf b
  | VDate d -> Format.fprintf ppf "date:%d" d
  | VStr s -> Format.fprintf ppf "%S" s

let pp_ty ppf = function
  | Int -> Format.pp_print_string ppf "int"
  | Float -> Format.pp_print_string ppf "float"
  | Bool -> Format.pp_print_string ppf "bool"
  | Date -> Format.pp_print_string ppf "date"
  | Varchar n -> Format.fprintf ppf "varchar(%d)" n

let to_display v = Format.asprintf "%a" pp v
