module Catalog = Storage.Catalog
module Relation = Storage.Relation

let selectivity ?estimate pred =
  match estimate with
  | Some f -> ( match f pred with Some s -> s | None -> Expr.default_selectivity pred)
  | None -> Expr.default_selectivity pred

(* An equality conjunct binding a column to a column-free expression. *)
let eq_binding = function
  | Expr.Cmp (Expr.Eq, Expr.Col i, e) when Expr.cols e = [] -> Some (i, e)
  | Expr.Cmp (Expr.Eq, e, Expr.Col i) when Expr.cols e = [] -> Some (i, e)
  | _ -> None

(* A range conjunct [lo <= col] or [col <= hi] (and strict variants). *)
let range_binding = function
  | Expr.Cmp ((Expr.Le | Expr.Lt), Expr.Col i, e) when Expr.cols e = [] ->
      Some (i, `Hi, e)
  | Expr.Cmp ((Expr.Ge | Expr.Gt), Expr.Col i, e) when Expr.cols e = [] ->
      Some (i, `Lo, e)
  | Expr.Cmp ((Expr.Le | Expr.Lt), e, Expr.Col i) when Expr.cols e = [] ->
      Some (i, `Lo, e)
  | Expr.Cmp ((Expr.Ge | Expr.Gt), e, Expr.Col i) when Expr.cols e = [] ->
      Some (i, `Hi, e)
  | _ -> None

let residual = function [] -> None | [ e ] -> Some e | es -> Some (Expr.And es)

(* Try to serve [pred] on [table] through an index.  Returns the access path,
   the residual predicate and the estimated fraction of tuples fetched. *)
let index_access cat table pred =
  let rel = Catalog.find cat table in
  let n = float_of_int (max 1 (Relation.nrows rel)) in
  let cs = Expr.conjuncts pred in
  let eqs = List.filter_map eq_binding cs in
  let eq_cols = List.sort_uniq compare (List.map fst eqs) in
  let try_eq () =
    if eqs = [] then None
    else
      match Catalog.find_index cat table ~attrs:eq_cols with
      | None -> None
      | Some idx ->
          let key_order = Storage.Index.attrs idx in
          let keys =
            List.map (fun a -> List.assoc a eqs) key_order
          in
          let rest =
            List.filter (fun c -> eq_binding c = None) cs
          in
          Some
            ( Physical.Index_eq { attrs = key_order; keys },
              residual rest,
              1.0 /. n )
  in
  let try_range () =
    let ranges = List.filter_map range_binding cs in
    match List.sort_uniq compare (List.map (fun (i, _, _) -> i) ranges) with
    | [ col ] -> (
        match Catalog.find_index cat table ~attrs:[ col ] with
        | Some idx when Storage.Index.kind idx = Storage.Index.Rbtree ->
            (* the last conjunct on each side bounds the index range *)
            let bound side =
              List.fold_left
                (fun acc c ->
                  match range_binding c with
                  | Some (_, s, e) when s = side -> Some (c, e)
                  | _ -> acc)
                None cs
            in
            let lo = bound `Lo and hi = bound `Hi in
            (* the range is inclusive: a strict bound, or a bound that did
               not become the range, stays in the residual predicate *)
            let served c =
              (match c with
              | Expr.Cmp ((Expr.Le | Expr.Ge), _, _) -> true
              | _ -> false)
              && List.exists (fun b -> Option.map fst b = Some c) [ lo; hi ]
            in
            let value b default =
              match b with
              | Some (_, e) -> e
              | None -> Expr.Const (Storage.Value.VInt default)
            in
            Some
              ( Physical.Index_range
                  { attr = col; lo = value lo min_int; hi = value hi max_int },
                residual (List.filter (fun c -> not (served c)) cs),
                0.05 )
        | _ -> None)
    | _ -> None
  in
  match try_eq () with Some r -> Some r | None -> try_range ()

let rec plan ?estimate ?sample_with ?n_groups ?(use_indexes = true) cat
    (l : Plan.t) : Physical.t =
  let recur c = plan ?estimate ?sample_with ?n_groups ~use_indexes cat c in
  (* data-derived selectivity for base-table predicates, when requested *)
  let table_sel table pred =
    match sample_with with
    | Some params -> Sampling.selectivity cat table pred ~params
    | None -> selectivity ?estimate pred
  in
  match l with
  | Plan.Scan table -> Physical.Scan { table; access = Full_scan; post = None; sel = 1.0 }
  | Plan.Select (Plan.Scan table, pred) -> (
      let fallback () =
        Physical.Scan
          {
            table;
            access = Full_scan;
            post = Some pred;
            sel = table_sel table pred;
          }
      in
      if not use_indexes then fallback ()
      else
        match index_access cat table pred with
        | Some (access, post, sel) ->
            let sel =
              match post with
              | None -> sel
              | Some p -> sel *. selectivity ?estimate p
            in
            Physical.Scan { table; access; post; sel }
        | None -> fallback ())
  | Plan.Select (child, pred) ->
      Physical.Select
        { child = recur child; pred; sel = selectivity ?estimate pred }
  | Plan.Project (child, exprs) -> Physical.Project { child = recur child; exprs }
  | Plan.Join { left; right; left_keys; right_keys } ->
      Physical.Hash_join
        {
          build = recur left;
          probe = recur right;
          build_keys = left_keys;
          probe_keys = right_keys;
          match_sel = 1.0;
        }
  | Plan.Group_by { child; keys; aggs } ->
      let child_p = recur child in
      let card = Physical.cardinality cat child_p in
      (* with sampling enabled and plain-column keys over a base table, the
         group count is the product of the keys' sampled distinct counts *)
      let sampled_groups () =
        match (sample_with, child_p) with
        | Some _, (Physical.Scan { table; _ } as _scan) ->
            let cols =
              List.map (fun (e, _) -> match e with Expr.Col c -> Some c | _ -> None) keys
            in
            if List.for_all Option.is_some cols then
              Some
                (List.fold_left
                   (fun acc c -> acc *. Sampling.n_distinct cat table (Option.get c))
                   1.0 cols
                |> Float.min card |> Float.max 1.0)
            else None
        | _ -> None
      in
      let groups =
        match n_groups with
        | Some g -> g
        | None -> (
            if keys = [] then 1.0
            else
              match sampled_groups () with
              | Some g -> g
              | None -> Float.min 256.0 (Float.max 1.0 card))
      in
      Physical.Group_by { child = child_p; keys; aggs; n_groups = groups }
  | Plan.Sort { child; keys } -> Physical.Sort { child = recur child; keys }
  | Plan.Limit (child, n) -> Physical.Limit { child = recur child; n }
  | Plan.Insert { table; values } -> Physical.Insert { table; values }
  | Plan.Update { table; assignments; pred } -> (
      match pred with
      | None ->
          Physical.Update
            { table; access = Full_scan; post = None; assignments; sel = 1.0 }
      | Some pred ->
          let fallback () =
            Physical.Update
              {
                table;
                access = Full_scan;
                post = Some pred;
                assignments;
                sel = table_sel table pred;
              }
          in
          if not use_indexes then fallback ()
          else (
            match index_access cat table pred with
            | Some (access, post, sel) ->
                let sel =
                  match post with
                  | None -> sel
                  | Some p -> sel *. selectivity ?estimate p
                in
                Physical.Update { table; access; post; assignments; sel }
            | None -> fallback ()))
