module Value = Storage.Value

type func = Count_star | Count | Sum | Min | Max | Avg

type t = { func : func; expr : Expr.t option; name : string }

let make func ?expr name =
  (match (func, expr) with
  | Count_star, Some _ -> invalid_arg "Aggregate.make: count(*) takes no expr"
  | (Count | Sum | Min | Max | Avg), None ->
      invalid_arg "Aggregate.make: aggregate needs an expression"
  | _ -> ());
  { func; expr; name }

type state = {
  func : func;
  mutable count : int;
  mutable sum_i : int;
  mutable sum_f : float;
  mutable is_float : bool;
  mutable best : Value.t; (* current min/max *)
}

let init func =
  { func; count = 0; sum_i = 0; sum_f = 0.0; is_float = false; best = Value.Null }

let box_int ~date v = if date then Value.VDate v else Value.VInt v

let step st v =
  match st.func with
  | Count_star -> st.count <- st.count + 1
  | Count -> if not (Value.is_null v) then st.count <- st.count + 1
  | Sum | Avg ->
      if not (Value.is_null v) then begin
        st.count <- st.count + 1;
        (match v with
        | Value.VFloat f ->
            st.is_float <- true;
            st.sum_f <- st.sum_f +. f
        | _ -> st.sum_i <- st.sum_i + Value.to_int v)
      end
  | Min ->
      if not (Value.is_null v) then
        if Value.is_null st.best || Value.compare v st.best < 0 then st.best <- v
  | Max ->
      if not (Value.is_null v) then
        if Value.is_null st.best || Value.compare v st.best > 0 then st.best <- v

(* [step st] of [v] boxed as [VDate] when [date], else [VInt]: no box
   unless a min or max keeps [v] (its best is the same kind of box, so
   comparing the ints is [Value.compare]). *)
let step_int st ~date v =
  match st.func with
  | Count_star | Count -> st.count <- st.count + 1
  | Sum | Avg ->
      st.count <- st.count + 1;
      st.sum_i <- st.sum_i + v
  | Min -> (
      match st.best with
      | Value.VInt b | Value.VDate b -> if v < b then st.best <- box_int ~date v
      | _ -> step st (box_int ~date v))
  | Max -> (
      match st.best with
      | Value.VInt b | Value.VDate b -> if v > b then st.best <- box_int ~date v
      | _ -> step st (box_int ~date v))

(* [step_n st v k] = k repetitions of [step st v].  Counts and integer sums
   use the closed form (native-int arithmetic wraps mod 2^63, so [k * v]
   equals k wrapped additions exactly); min/max are idempotent; float sums
   stay looped — repeated addition is not distributive in floating point and
   the run-granular path must match the per-row path bit for bit. *)
let step_n st v k =
  if k = 1 then step st v
  else if k > 0 then
    match st.func with
    | Count_star -> st.count <- st.count + k
    | Count -> if not (Value.is_null v) then st.count <- st.count + k
    | Sum | Avg ->
        if not (Value.is_null v) then begin
          match v with
          | Value.VFloat f ->
              for _ = 1 to k do
                st.count <- st.count + 1;
                st.is_float <- true;
                st.sum_f <- st.sum_f +. f
              done
          | _ ->
              st.count <- st.count + k;
              st.sum_i <- st.sum_i + (k * Value.to_int v)
        end
    | Min | Max -> step st v

let total st = st.sum_f +. float_of_int st.sum_i

let finish st =
  match st.func with
  | Count_star | Count -> Value.VInt st.count
  | Sum ->
      if st.count = 0 then Value.Null
      else if st.is_float then Value.VFloat (total st)
      else Value.VInt st.sum_i
  | Avg -> if st.count = 0 then Value.Null else Value.VFloat (total st /. float_of_int st.count)
  | Min | Max -> st.best

(* ------------------------------------------------------------------ *)
(* Parallel decomposition: per-morsel partials and their combination    *)
(* ------------------------------------------------------------------ *)

let decompose (t : t) =
  match t.func with
  | Avg ->
      (* avg is not mergeable from finished values: compute sum and count
         per morsel and recombine at the end *)
      let e =
        match t.expr with
        | Some e -> e
        | None -> invalid_arg "Aggregate.decompose: avg without expression"
      in
      [
        make Sum ~expr:e (t.name ^ "$avg_sum");
        make Count ~expr:e (t.name ^ "$avg_count");
      ]
  | Count_star | Count | Sum | Min | Max -> [ t ]

let merge_value func a b =
  match func with
  | Count_star | Count -> Value.VInt (Value.to_int a + Value.to_int b)
  | Sum -> (
      match (a, b) with
      | Value.Null, x | x, Value.Null -> x
      | Value.VFloat x, y -> Value.VFloat (x +. Value.to_float y)
      | x, Value.VFloat y -> Value.VFloat (Value.to_float x +. y)
      | x, y -> Value.VInt (Value.to_int x + Value.to_int y))
  | Min ->
      if Value.is_null a then b
      else if Value.is_null b then a
      else if Value.compare b a < 0 then b
      else a
  | Max ->
      if Value.is_null a then b
      else if Value.is_null b then a
      else if Value.compare b a > 0 then b
      else a
  | Avg -> invalid_arg "Aggregate.merge_value: decompose avg before merging"

let recombine (t : t) partials =
  match t.func with
  | Avg ->
      let count = Value.to_int partials.(1) in
      if count = 0 then Value.Null
      else Value.VFloat (Value.to_float partials.(0) /. float_of_int count)
  | Count_star | Count | Sum | Min | Max -> partials.(0)

let output_type (t : t) col_ty =
  match t.func with
  | Count_star | Count -> Value.Int
  | Avg -> Value.Float
  | Sum | Min | Max -> (
      match t.expr with
      | Some (Expr.Col i) -> col_ty i
      | Some _ -> Value.Int
      | None -> Value.Int)

let func_name = function
  | Count_star -> "count(*)"
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"

let pp ppf t =
  match t.expr with
  | None -> Format.fprintf ppf "%s" (func_name t.func)
  | Some e -> Format.fprintf ppf "%s(%a)" (func_name t.func) Expr.pp e
