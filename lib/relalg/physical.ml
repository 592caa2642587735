module Schema = Storage.Schema

type access =
  | Full_scan
  | Index_eq of { attrs : int list; keys : Expr.t list }
  | Index_range of { attr : int; lo : Expr.t; hi : Expr.t }

type t =
  | Scan of { table : string; access : access; post : Expr.t option; sel : float }
  | Select of { child : t; pred : Expr.t; sel : float }
  | Project of { child : t; exprs : (Expr.t * string) list }
  | Hash_join of {
      build : t;
      probe : t;
      build_keys : int list;
      probe_keys : int list;
      match_sel : float;
    }
  | Group_by of {
      child : t;
      keys : (Expr.t * string) list;
      aggs : Aggregate.t list;
      n_groups : float;
    }
  | Sort of { child : t; keys : (int * Plan.dir) list }
  | Limit of { child : t; n : int }
  | Insert of { table : string; values : Expr.t list }
  | Update of {
      table : string;
      access : access;
      post : Expr.t option;
      assignments : (int * Expr.t) list;
      sel : float;
    }

let rec to_logical = function
  | Scan { table; post; _ } -> (
      match post with
      | None -> Plan.Scan table
      | Some pred -> Plan.Select (Plan.Scan table, pred))
  | Select { child; pred; _ } -> Plan.Select (to_logical child, pred)
  | Project { child; exprs } -> Plan.Project (to_logical child, exprs)
  | Hash_join { build; probe; build_keys; probe_keys; _ } ->
      Plan.Join
        {
          left = to_logical build;
          right = to_logical probe;
          left_keys = build_keys;
          right_keys = probe_keys;
        }
  | Group_by { child; keys; aggs; _ } ->
      Plan.Group_by { child = to_logical child; keys; aggs }
  | Sort { child; keys } -> Plan.Sort { child = to_logical child; keys }
  | Limit { child; n } -> Plan.Limit (to_logical child, n)
  | Insert { table; values } -> Plan.Insert { table; values }
  | Update { table; post; assignments; _ } ->
      Plan.Update { table; assignments; pred = post }

let schema cat t = Plan.schema cat (to_logical t)

let rec cardinality cat = function
  | Scan { table; sel; _ } ->
      sel *. float_of_int (Storage.Relation.nrows (Storage.Catalog.find cat table))
  | Select { child; sel; _ } -> sel *. cardinality cat child
  | Project { child; _ } -> cardinality cat child
  | Hash_join { probe; match_sel; _ } -> match_sel *. cardinality cat probe
  | Group_by { child; n_groups; _ } -> Float.min n_groups (cardinality cat child)
  | Sort { child; _ } -> cardinality cat child
  | Limit { child; n } -> Float.min (float_of_int n) (cardinality cat child)
  | Insert _ -> 1.0
  | Update { table; sel; _ } ->
      sel *. float_of_int (Storage.Relation.nrows (Storage.Catalog.find cat table))

let pp_access ppf = function
  | Full_scan -> Format.pp_print_string ppf "full"
  | Index_eq { attrs; _ } ->
      Format.fprintf ppf "index_eq[%s]"
        (String.concat "," (List.map string_of_int attrs))
  | Index_range { attr; _ } -> Format.fprintf ppf "index_range[#%d]" attr

let rec pp ppf = function
  | Scan { table; access; post; sel } ->
      Format.fprintf ppf "Scan(%s, %a%s, sel=%.4f)" table pp_access access
        (match post with
        | Some p -> ", post=" ^ Expr.to_string p
        | None -> "")
        sel
  | Select { child; pred; sel } ->
      Format.fprintf ppf "@[<v2>Select %a (sel=%.4f)@,%a@]" Expr.pp pred sel pp
        child
  | Project { child; exprs } ->
      Format.fprintf ppf "@[<v2>Project [%s]@,%a@]"
        (String.concat "; " (List.map snd exprs))
        pp child
  | Hash_join { build; probe; build_keys; probe_keys; match_sel } ->
      Format.fprintf ppf "@[<v2>HashJoin b%s=p%s (match=%.4f)@,%a@,%a@]"
        (String.concat "," (List.map string_of_int build_keys))
        (String.concat "," (List.map string_of_int probe_keys))
        match_sel pp build pp probe
  | Group_by { child; keys; aggs; n_groups } ->
      Format.fprintf ppf "@[<v2>GroupBy [%s] aggs=%d (groups=%.0f)@,%a@]"
        (String.concat "; " (List.map snd keys))
        (List.length aggs) n_groups pp child
  | Sort { child; _ } -> Format.fprintf ppf "@[<v2>Sort@,%a@]" pp child
  | Limit { child; n } -> Format.fprintf ppf "@[<v2>Limit %d@,%a@]" n pp child
  | Insert { table; _ } -> Format.fprintf ppf "Insert(%s)" table
  | Update { table; assignments; sel; _ } ->
      Format.fprintf ppf "Update(%s, %d assignments, sel=%.4f)" table
        (List.length assignments) sel
