module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module Encoding = Storage.Encoding
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

type access_kind = Seq | Seq_cond of float | Rand

type access_desc = {
  table : string;
  attrs : int list;
  kind : access_kind;
  touches : int;
}

type enc_hint = { enc : Encoding.t; entries : int }

type env = {
  cat : Catalog.t;
  layouts : (string * Layout.t) list;
  encodings : (string * (int * enc_hint) list) list;
  estimate : Expr.t -> float option;
}

let layout_of env table =
  match List.assoc_opt table env.layouts with
  | Some l -> l
  | None -> Relation.layout (Catalog.find env.cat table)

let schema_of env table = Relation.schema (Catalog.find env.cat table)

let nrows env table = Relation.nrows (Catalog.find env.cat table)

(* Like [layouts], [encodings] overrides the live encodings of named tables
   wholesale: attributes absent from a table's hint list are costed plain. *)
let hints_of env table = List.assoc_opt table env.encodings

let plain_hint = { enc = Encoding.Plain; entries = 0 }

(* The attribute's encoding and side-region entries: hypothesized by the
   table's hints when it has any, else those of the stored relation. *)
let hint_of env table a =
  match hints_of env table with
  | Some l -> Option.value (List.assoc_opt a l) ~default:plain_hint
  | None ->
      let rel = Catalog.find env.cat table in
      { enc = Relation.encoding rel a; entries = Relation.side_entries rel a }

let enc_of env table a = (hint_of env table a).enc

let side_width env table a enc =
  Encoding.side_width (Schema.attr (schema_of env table) a) enc

(* widths are encoding-aware: a dictionary-compressed attribute occupies
   only its code width in the partition, an RLE or sparse one nothing *)
let stored_width env table a =
  Encoding.stored_width (Schema.attr (schema_of env table) a) (enc_of env table a)

let outside_partition env table a =
  Encoding.outside_partition (enc_of env table a)

let part_width env table layout p =
  Array.fold_left
    (fun acc a -> acc + stored_width env table a)
    0
    (Layout.partition_attrs layout p)

let conjunct_sel env e =
  match env.estimate e with
  | Some s -> s
  | None -> Expr.default_selectivity e

let row_width_of_attrs env table attrs =
  List.fold_left (fun acc a -> acc + stored_width env table a) 0 attrs

(* decoding a dictionary-compressed attribute is a repetitive random access
   into the dictionary region, once per read value *)
let dict_decode_atoms env table accesses ~n =
  List.filter_map
    (fun (a, s) ->
      match hint_of env table a with
      | { enc = Encoding.Dict as enc; entries } ->
          let r = max 1 (int_of_float (s *. float_of_int n)) in
          Some
            (Pattern.rr_acc ~n:(max 1 entries) ~w:(side_width env table a enc)
               ~r ())
      | _ -> None)
    accesses

(* binary-search probes into a side region (sparse pair list, RLE run list,
   FOR exception table): ~log2(count) probes per accessed tuple *)
let probe_atom ~count ~entry_width ~hits =
  let log2k =
    max 1
      (int_of_float
         (Float.ceil
            (Float.log (float_of_int (max 2 count)) /. Float.log 2.0)))
  in
  Pattern.rr_acc ~n:count ~w:entry_width ~r:(max 1 hits * log2k) ()

(* point-wise reads of the attributes stored under [scheme] (Sparse or
   Rle): binary search of the pair or run list per tuple *)
let probe_atoms scheme env table accesses ~n =
  List.filter_map
    (fun (a, s) ->
      let h = hint_of env table a in
      if h.enc = scheme then
        Some
          (probe_atom ~count:(max 1 h.entries)
             ~entry_width:(side_width env table a h.enc)
             ~hits:(max 1 (int_of_float (s *. float_of_int n))))
      else None)
    accesses

(* scan-wise RLE reads: an unconditional access is evaluated run-granularly
   (the engines' pushdown path), so the traffic is the run list itself;
   conditional payloads fall back to per-tuple binary search *)
let rle_scan_atoms env table accesses ~n =
  let uncond, cond = List.partition (fun (_, s) -> s >= 1.0) accesses in
  List.filter_map
    (fun (a, _) ->
      match hint_of env table a with
      | { enc = Encoding.Rle as enc; entries } ->
          Some
            (Pattern.s_trav_rle ~n ~runs:(max 1 entries)
               ~w:(side_width env table a enc) ())
      | _ -> None)
    uncond
  @ probe_atoms Encoding.Rle env table cond ~n

(* frame-of-reference columns travel at code width (already reflected in
   [stored_width]); reconstructing each read value is pure CPU work, plus
   binary-search probes into the exception table for escape codes *)
let for_decode_atoms env table accesses ~n =
  List.concat_map
    (fun (a, s) ->
      match hint_of env table a with
      | { enc = Encoding.For_bp _ as enc; entries = exceptions } ->
          let reads = max 1 (int_of_float (s *. float_of_int n)) in
          let dec = Pattern.decode ~n:reads () in
          if exceptions > 0 then
            let hits =
              max 1 (int_of_float (s *. float_of_int exceptions))
            in
            [
              dec;
              probe_atom ~count:exceptions
                ~entry_width:(side_width env table a enc) ~hits;
            ]
          else [ dec ]
      | _ -> [])
    accesses

(* width of one output row of a plan *)
let out_width env plan =
  let schema = Physical.schema env.cat plan in
  Array.fold_left (fun acc a -> acc + Schema.stored_width a) 0 schema

(* ------------------------------------------------------------------ *)
(* Scan emission                                                       *)
(* ------------------------------------------------------------------ *)

(* Group a [(attr, sel)] access list by partition and emit one atom per
   partition.  [sel] is the probability that the attribute is read for a
   given tuple (1.0 = unconditional). *)
let scan_partition_patterns env table (accesses : (int * float) list) =
  let layout = layout_of env table in
  let n = nrows env table in
  let llc_block = Memsim.Params.line_size Memsim.Params.nehalem in
  let outside, accesses =
    List.partition (fun (a, _) -> outside_partition env table a) accesses
  in
  let by_part = Hashtbl.create 8 in
  List.iter
    (fun (a, s) ->
      let p = Layout.partition_of_attr layout a in
      let prev = try Hashtbl.find by_part p with Not_found -> [] in
      Hashtbl.replace by_part p ((a, s) :: prev))
    accesses;
  dict_decode_atoms env table accesses ~n
  @ for_decode_atoms env table accesses ~n
  @ probe_atoms Encoding.Sparse env table outside ~n
  @ rle_scan_atoms env table outside ~n
  @ Hashtbl.fold
    (fun p attrs acc ->
      let w = part_width env table layout p in
      let uncond, cond = List.partition (fun (_, s) -> s >= 1.0) attrs in
      let u_of l = row_width_of_attrs env table (List.map fst l) in
      let pats = ref [] in
      if uncond <> [] then begin
        (* a narrow partition's lines are fetched unconditionally anyway, so
           conditional attributes in the same partition ride along *)
        let extra = if w <= llc_block then u_of cond else 0 in
        pats :=
          Pattern.s_trav ~u:(u_of uncond + extra) ~n ~w () :: !pats
      end;
      if cond <> [] && (uncond = [] || w > llc_block) then begin
        (* one conditional traversal per distinct selectivity *)
        let by_sel = Hashtbl.create 4 in
        List.iter
          (fun (a, s) ->
            let prev = try Hashtbl.find by_sel s with Not_found -> [] in
            Hashtbl.replace by_sel s (a :: prev))
          cond;
        Hashtbl.iter
          (fun s attrs ->
            pats :=
              Pattern.s_trav_cr
                ~u:(row_width_of_attrs env table attrs)
                ~n ~w ~s ()
              :: !pats)
          by_sel
      end;
      !pats @ acc)
    by_part []

(* Point accesses (index fetch): one rr_acc per touched partition. *)
let point_partition_patterns env table ~r attrs =
  let layout = layout_of env table in
  let n = max 1 (nrows env table) in
  let outside, attrs2 = List.partition (outside_partition env table) attrs in
  let by_part = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let p = Layout.partition_of_attr layout a in
      let prev = try Hashtbl.find by_part p with Not_found -> [] in
      Hashtbl.replace by_part p (a :: prev))
    attrs2;
  let full a = List.map (fun x -> (x, 1.0)) a in
  dict_decode_atoms env table (full attrs2) ~n:(max 1 r)
  @ for_decode_atoms env table (full attrs2) ~n:(max 1 r)
  @ probe_atoms Encoding.Sparse env table (full outside) ~n:(max 1 r)
  @ probe_atoms Encoding.Rle env table (full outside) ~n:(max 1 r)
  @ Hashtbl.fold
    (fun p attrs acc ->
      let w = part_width env table layout p in
      Pattern.rr_acc
        ~u:(row_width_of_attrs env table attrs)
        ~n ~w ~r ()
      :: acc)
    by_part []

(* Access list of a scan predicate under short-circuit evaluation.  For a
   conjunction the i-th term's columns are read with probability
   prod_{j<i} sel(term j) (evaluation continues while terms hold); for a
   top-level disjunction with probability prod_{j<i} (1 - sel(term j))
   (evaluation continues while terms fail) — the behaviour behind the
   NAME1/NAME2 decomposition of Table IV. *)
let predicate_accesses env pred =
  let terms, continue_prob =
    match pred with
    | Expr.Or es -> (es, fun s -> 1.0 -. s)
    | _ -> (Expr.conjuncts pred, fun s -> s)
  in
  let _, accesses =
    List.fold_left
      (fun (prefix, acc) term ->
        let cols = Expr.cols term in
        let acc = List.map (fun c -> (c, prefix)) cols @ acc in
        (prefix *. continue_prob (conjunct_sel env term), acc))
      (1.0, []) terms
  in
  (* a column read by several conjuncts keeps its earliest (largest)
     probability: [accesses] lists the last conjunct's columns first *)
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (c, s) ->
      if Hashtbl.mem seen c then acc
      else begin
        Hashtbl.add seen c ();
        (c, s) :: acc
      end)
    [] (List.rev accesses)
  |> List.rev

let descs_of_accesses table ~n accesses =
  (* group layout-independent descriptors by access probability *)
  let by_sel = Hashtbl.create 4 in
  List.iter
    (fun (a, s) ->
      let prev = try Hashtbl.find by_sel s with Not_found -> [] in
      Hashtbl.replace by_sel s (a :: prev))
    accesses;
  Hashtbl.fold
    (fun s attrs acc ->
      let kind = if s >= 1.0 then Seq else Seq_cond s in
      let touches =
        if s >= 1.0 then n
        else max 1 (int_of_float (Float.ceil (s *. float_of_int n)))
      in
      { table; attrs = List.sort_uniq compare attrs; kind; touches } :: acc)
    by_sel []

(* ------------------------------------------------------------------ *)
(* Plan traversal                                                      *)
(* ------------------------------------------------------------------ *)

let hash_entry_width env plan keys =
  let schema = Physical.schema env.cat plan in
  ignore keys;
  8
  + Array.fold_left (fun acc a -> acc + Schema.stored_width a) 0 schema

let emit_update env table access post assignments sel =
  let n = max 1 (nrows env table) in
  let matches = max 1 (int_of_float (sel *. float_of_int n)) in
  let pred_accesses =
    match post with Some p -> predicate_accesses env p | None -> []
  in
  (* right-hand sides read their columns for matching tuples only *)
  let rhs_cols =
    List.concat_map (fun (_, e) -> Expr.cols e) assignments
    |> List.sort_uniq compare
  in
  let read_accesses =
    pred_accesses
    @ List.filter_map
        (fun c ->
          if List.mem_assoc c pred_accesses then None else Some (c, sel))
        rhs_cols
  in
  let locate =
    match (access : Physical.access) with
    | Physical.Full_scan -> scan_partition_patterns env table read_accesses
    | _ ->
        let index_pat = Pattern.rr_acc ~n ~w:16 ~r:matches () in
        index_pat
        :: point_partition_patterns env table ~r:matches
             (List.map fst read_accesses)
  in
  (* in-place writes: one random access per assigned partition per match *)
  let layout = layout_of env table in
  let assigned = List.map fst assignments in
  let parts =
    List.sort_uniq compare (List.map (Layout.partition_of_attr layout) assigned)
  in
  let writes =
    List.map
      (fun p ->
        Pattern.rr_acc
          ~u:(row_width_of_attrs env table assigned)
          ~n
          ~w:(max 1 (part_width env table layout p))
          ~r:matches ())
      parts
  in
  ( Pattern.par (locate @ writes),
    {
      table;
      attrs = List.sort_uniq compare (assigned @ rhs_cols);
      kind = Rand;
      touches = matches;
    }
    :: descs_of_accesses table ~n read_accesses )

let rec go env (plan : Physical.t) ~(needed : int list) :
    Pattern.t * access_desc list =
  match plan with
  | Physical.Scan { table; access; post; sel } -> (
      let pred_accesses =
        match post with Some p -> predicate_accesses env p | None -> []
      in
      let pred_cols = List.map fst pred_accesses in
      let payload =
        List.filter (fun c -> not (List.mem c pred_cols)) needed
      in
      match access with
      | Physical.Full_scan ->
          let payload_sel = if post = None then 1.0 else sel in
          let accesses =
            pred_accesses @ List.map (fun c -> (c, payload_sel)) payload
          in
          let pats = scan_partition_patterns env table accesses in
          (Pattern.par pats, descs_of_accesses table ~n:(nrows env table) accesses)
      | Physical.Index_eq _ | Physical.Index_range _ ->
          let matches =
            max 1 (int_of_float (sel *. float_of_int (nrows env table)))
          in
          let n = max 1 (nrows env table) in
          let index_attrs =
            match access with
            | Physical.Index_eq { attrs; _ } -> attrs
            | Physical.Index_range { attr; _ } -> [ attr ]
            | Physical.Full_scan -> assert false
          in
          (* probing the index structure, then fetching the tuples *)
          let probe_depth =
            match access with
            | Physical.Index_range _ ->
                (* tree descent: log2 n nodes per fetched tuple *)
                let log2n =
                  max 1
                    (int_of_float
                       (Float.ceil (Float.log (float_of_int n) /. Float.log 2.)))
                in
                matches * log2n
            | _ -> matches
          in
          let index_pat = Pattern.rr_acc ~n ~w:16 ~r:probe_depth () in
          let fetch_cols =
            List.sort_uniq compare (needed @ pred_cols)
          in
          let fetch =
            point_partition_patterns env table ~r:matches fetch_cols
          in
          ( Pattern.par (index_pat :: fetch),
            (* the index probe and the tuple fetches are both point
               accesses: [matches] random touches each *)
            [
              { table; attrs = index_attrs; kind = Rand; touches = matches };
              {
                table;
                attrs = List.sort_uniq compare fetch_cols;
                kind = Rand;
                touches = matches;
              };
            ] ))
  | Physical.Select { child; pred; _ } ->
      (* tuples are register-resident above the scan; only column fetches
         from the child matter *)
      let child_needed = List.sort_uniq compare (needed @ Expr.cols pred) in
      go env child ~needed:child_needed
  | Physical.Project { child; exprs } ->
      let used =
        List.concat_map (fun (e, _) -> Expr.cols e) exprs
        |> List.sort_uniq compare
      in
      let pat, descs = go env child ~needed:used in
      let card = int_of_float (Physical.cardinality env.cat plan) in
      let w = max 8 (out_width env plan) in
      (* materializing the result *)
      let out_pat =
        if card > 0 then Pattern.s_trav ~n:card ~w () else Pattern.empty
      in
      (Pattern.seq [ pat; out_pat ], descs)
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      let build_arity = Array.length (Physical.schema env.cat build) in
      let needed_build =
        List.sort_uniq compare
          (build_keys @ List.filter (fun c -> c < build_arity) needed)
      in
      let needed_probe =
        List.sort_uniq compare
          (probe_keys
          @ List.filter_map
              (fun c ->
                if c >= build_arity then Some (c - build_arity) else None)
              needed)
      in
      let build_pat, build_descs = go env build ~needed:needed_build in
      let probe_pat, probe_descs = go env probe ~needed:needed_probe in
      let build_card =
        max 1 (int_of_float (Physical.cardinality env.cat build))
      in
      let probe_card =
        max 1 (int_of_float (Physical.cardinality env.cat probe))
      in
      let ew = hash_entry_width env build build_keys in
      let ht_build = Pattern.r_trav ~n:build_card ~w:ew () in
      let ht_probe = Pattern.rr_acc ~n:build_card ~w:ew ~r:probe_card () in
      ( Pattern.seq
          [ Pattern.par [ build_pat; ht_build ]; Pattern.par [ probe_pat; ht_probe ] ],
        build_descs @ probe_descs )
  | Physical.Group_by { child; keys; aggs; n_groups } ->
      let used =
        (List.concat_map (fun (e, _) -> Expr.cols e) keys
        @ List.concat_map
            (fun (a : Aggregate.t) ->
              match a.Aggregate.expr with Some e -> Expr.cols e | None -> [])
            aggs)
        |> List.sort_uniq compare
      in
      let pat, descs = go env child ~needed:used in
      let card = max 1 (int_of_float (Physical.cardinality env.cat child)) in
      let groups = max 1 (int_of_float n_groups) in
      let ew = 16 + (16 * List.length aggs) in
      let agg_pat = Pattern.rr_acc ~n:groups ~w:ew ~r:card () in
      (Pattern.par [ pat; agg_pat ], descs)
  | Physical.Sort { child; keys } ->
      let child_arity = Array.length (Physical.schema env.cat child) in
      let all = List.init child_arity Fun.id in
      let child_needed = List.sort_uniq compare (needed @ List.map fst keys @ all) in
      let pat, descs = go env child ~needed:child_needed in
      let card = max 1 (int_of_float (Physical.cardinality env.cat child)) in
      let w = max 8 (out_width env child) in
      let log2n =
        max 1
          (int_of_float
             (Float.ceil (Float.log (float_of_int card) /. Float.log 2.)))
      in
      ( Pattern.seq
          [
            pat;
            Pattern.s_trav ~n:card ~w ();
            Pattern.rr_acc ~n:card ~w ~r:(card * log2n) ();
          ],
        descs )
  | Physical.Limit { child; _ } -> go env child ~needed
  | Physical.Insert { table; values } ->
      let schema = schema_of env table in
      let layout = layout_of env table in
      let n = max 1 (nrows env table) in
      let parts = Layout.partitions layout in
      let pats =
        Array.to_list
          (Array.map
             (fun attrs ->
               let w =
                 Array.fold_left
                   (fun acc a -> acc + stored_width env table a)
                   0 attrs
               in
               Pattern.rr_acc ~n ~w:(max 1 w) ~r:1 ())
             parts)
      in
      let index_pats =
        List.map
          (fun (_, _idx) -> Pattern.rr_acc ~n ~w:16 ~r:1 ())
          (Catalog.indexes env.cat table)
      in
      ignore values;
      ( Pattern.par (pats @ index_pats),
        [
          {
            table;
            attrs = List.init (Schema.arity schema) Fun.id;
            kind = Rand;
            touches = 1;
          };
        ] )
  | Physical.Update { table; access; post; assignments; sel } ->
      emit_update env table access post assignments sel

let emit ?(layouts = []) ?(encodings = []) ?(estimate = fun _ -> None) cat
    plan =
  let env = { cat; layouts; encodings; estimate } in
  let arity = Array.length (Physical.schema cat plan) in
  let needed = List.init arity Fun.id in
  go env plan ~needed

let pp_desc cat ppf d =
  let schema = Relation.schema (Catalog.find cat d.table) in
  let names =
    List.map (fun a -> (Schema.attr schema a).Schema.name) d.attrs
  in
  let kind =
    match d.kind with
    | Seq -> "seq"
    | Seq_cond s -> Printf.sprintf "seq_cond(%.4g)" s
    | Rand -> "rand"
  in
  Format.fprintf ppf "%s{%s}:%s" d.table (String.concat "," names) kind
