(* Tests for the compression subsystem added on top of the original
   dictionary/sparse encodings: run-length encoding, frame-of-reference with
   narrow codes, the advisor that chooses schemes from column statistics,
   direct execution on compressed partitions, and the optimizer's joint
   layout x compression search. *)

module V = Storage.Value
module Encoding = Storage.Encoding
module Relation = Storage.Relation
module Compress = Storage.Compress
module Engine = Engines.Engine

(* A table whose four data columns are each tailor-made for one scheme:
   [grp] is sorted with long runs (RLE), [tag] is a low-cardinality string
   (dictionary), [base] clusters around 100_000 (frame of reference), and
   [note] is mostly NULL (sparse). *)
let schema =
  Storage.Schema.make_nullable "cmp"
    [
      ("id", V.Int, false);
      ("grp", V.Int, false);
      ("tag", V.Varchar 12, false);
      ("base", V.Int, false);
      ("note", V.Varchar 8, true);
    ]

let row_of i =
  [|
    V.VInt i;
    V.VInt (i / 50);
    V.VStr (Printf.sprintf "t%02d" (i mod 7));
    V.VInt (100_000 + (i mod 90));
    (if i mod 20 = 0 then V.VStr (Printf.sprintf "n%d" (i mod 5)) else V.Null);
  |]

let build ?(layout = Storage.Layout.column schema)
    ?(hier = Memsim.Hierarchy.create ()) ~encodings n =
  let cat = Storage.Catalog.create ~hier () in
  let layout = Compress.singleton_layout schema layout encodings in
  let rel = Storage.Catalog.add ~encodings cat schema layout in
  Relation.load rel ~n (fun ~row -> row_of row);
  (cat, rel)

let all_schemes = [ (1, Encoding.Rle); (2, Encoding.Dict); (3, Encoding.For_bp 1) ]

(* ------------------------------------------------------------------ *)
(* Advisor                                                             *)
(* ------------------------------------------------------------------ *)

let test_advisor_chooses_schemes () =
  let rows = Array.init 400 row_of in
  let plan = Compress.plan_rows schema rows in
  let enc a = List.assoc_opt a plan in
  Alcotest.(check bool) "grp gets RLE" true (enc 1 = Some Encoding.Rle);
  Alcotest.(check bool) "tag gets a dictionary" true (enc 2 = Some Encoding.Dict);
  (match enc 3 with
  | Some (Encoding.For_bp w) ->
      Alcotest.(check bool) "narrow FOR code" true (w <= 2)
  | e ->
      Alcotest.failf "base not frame-of-reference encoded (%s)"
        (match e with
        | None -> "plain"
        | Some e -> Format.asprintf "%a" Encoding.pp e));
  Alcotest.(check bool) "note goes sparse" true (enc 4 = Some Encoding.Sparse);
  (* dense unique ints still fit a narrow frame-of-reference window *)
  Alcotest.(check bool) "id gets FOR, never RLE" true
    (match enc 0 with
    | Some (Encoding.For_bp _) | None -> true
    | _ -> false)

let test_advisor_deterministic () =
  let rows = Array.init 300 row_of in
  Alcotest.(check bool) "same plan twice" true
    (Compress.plan_rows schema rows = Compress.plan_rows schema rows)

(* ------------------------------------------------------------------ *)
(* Round-trips                                                         *)
(* ------------------------------------------------------------------ *)

let check_roundtrip label rel n =
  for row = 0 to n - 1 do
    Alcotest.(check Helpers.row_testable)
      (Printf.sprintf "%s tuple %d" label row)
      (row_of row) (Relation.get_tuple rel row)
  done

let test_rle_roundtrip () =
  let _, rel = build ~encodings:[ (1, Encoding.Rle) ] 230 in
  check_roundtrip "rle" rel 230;
  Alcotest.(check int) "5 runs" 5 (Relation.side_entries rel 1)

let test_for_roundtrip () =
  let _, rel = build ~encodings:[ (3, Encoding.For_bp 1) ] 210 in
  check_roundtrip "for" rel 210

let test_for_exceptions_roundtrip () =
  (* values outside the zigzag window of a 1-byte code must escape to the
     exception list and still read back exactly, including extremes *)
  let schema = Storage.Schema.make "esc" [ ("v", V.Int) ] in
  let spikes =
    [| 1000; 1001; max_int; 999; min_int; 1002; 1003; -5000; 1004; 0 |]
  in
  let cat = Storage.Catalog.create () in
  let rel =
    Storage.Catalog.add ~encodings:[ (0, Encoding.For_bp 1) ] cat schema
      (Storage.Layout.column schema)
  in
  Relation.load rel ~n:(Array.length spikes) (fun ~row -> [| V.VInt spikes.(row) |]);
  Array.iteri
    (fun i v ->
      Alcotest.(check Helpers.value_testable)
        (Printf.sprintf "spike %d" i)
        (V.VInt v) (Relation.get rel i 0))
    spikes;
  Alcotest.(check bool) "has exceptions" true (Relation.side_entries rel 0 >= 3)

let test_updates_roundtrip () =
  let _, rel = build ~encodings:all_schemes 120 in
  (* overwrite values on every compressed column, including a FOR exception *)
  Relation.set rel 7 1 (V.VInt 999);
  Relation.set rel 8 2 (V.VStr "fresh");
  Relation.set rel 9 3 (V.VInt max_int);
  Relation.set rel 10 4 (V.VStr "now");
  Alcotest.(check Helpers.value_testable) "rle set" (V.VInt 999)
    (Relation.get rel 7 1);
  Alcotest.(check Helpers.value_testable) "dict set" (V.VStr "fresh")
    (Relation.get rel 8 2);
  Alcotest.(check Helpers.value_testable) "for escape set" (V.VInt max_int)
    (Relation.get rel 9 3);
  Alcotest.(check Helpers.value_testable) "sparse set" (V.VStr "now")
    (Relation.get rel 10 4);
  (* neighbours are untouched *)
  Alcotest.(check Helpers.row_testable) "row 11 intact" (row_of 11)
    (Relation.get_tuple rel 11)

let test_append_roundtrip () =
  let _, rel = build ~encodings:all_schemes 60 in
  for i = 60 to 99 do
    ignore (Relation.append rel (row_of i))
  done;
  check_roundtrip "appended" rel 100

(* QCheck: random int columns survive a recompress round-trip under every
   int scheme, covering NULL-heavy, constant, and overflow-adjacent data. *)
let qcheck_roundtrips =
  let open QCheck in
  let value_gen =
    Gen.frequency
      [
        (4, Gen.map (fun i -> Some i) Gen.small_signed_int);
        (2, Gen.return (Some 42));
        (2, Gen.return None);
        (1, Gen.oneofl [ Some max_int; Some min_int; Some 0 ]);
      ]
  in
  let arb =
    make
      ~print:(fun l ->
        String.concat ";"
          (List.map (function Some i -> string_of_int i | None -> "_") l))
      (Gen.list_size (Gen.int_range 1 80) value_gen)
  in
  QCheck.Test.make ~count:60 ~name:"random columns survive every scheme" arb
    (fun vals ->
      let schema = Storage.Schema.make_nullable "q" [ ("v", V.Int, true) ] in
      let boxed =
        Array.of_list
          (List.map (function Some i -> V.VInt i | None -> V.Null) vals)
      in
      let n = Array.length boxed in
      List.for_all
        (fun enc ->
          let cat = Storage.Catalog.create () in
          let rel =
            Storage.Catalog.add ~encodings:[ (0, enc) ] cat schema
              (Storage.Layout.column schema)
          in
          Relation.load rel ~n (fun ~row -> [| boxed.(row) |]);
          let ok = ref true in
          for i = 0 to n - 1 do
            if Relation.get rel i 0 <> boxed.(i) then ok := false
          done;
          !ok)
        [ Encoding.Rle; Encoding.Sparse; Encoding.For_bp 1; Encoding.For_bp 2 ])

(* QCheck: the advisor's predicted side region is the stored one.  For a
   random single column (Int, Date or Varchar, nullable or not, runs and
   NULLs mixed) stored under every scheme legal for it, which includes all
   that [Compress.choose] weighs, [Compress.entries] of the column's
   statistics is the stored side region's entry count and
   [Compress.encoded_bytes] the stored footprint. *)
let qcheck_predicted_side_region =
  let open QCheck in
  let cell =
    Gen.frequency
      [
        (4, Gen.map Option.some Gen.small_signed_int);
        (2, Gen.return (Some 42));
        (1, Gen.oneofl [ Some max_int; Some min_int; Some 100_000 ]);
        (2, Gen.return None);
      ]
  in
  let gen =
    Gen.(
      triple
        (oneofl [ V.Int; V.Date; V.Varchar 8 ])
        bool
        (list_size (int_range 1 40) (pair cell (int_range 1 6))))
  in
  let print (ty, nullable, runs) =
    Format.asprintf "%a%s: %s" V.pp_ty ty
      (if nullable then " null" else "")
      (String.concat ";"
         (List.map
            (fun (c, len) ->
              Printf.sprintf "%sx%d"
                (match c with Some i -> string_of_int i | None -> "_")
                len)
            runs))
  in
  QCheck.Test.make ~count:200 ~name:"predicted side region is the stored one"
    (make ~print gen) (fun (ty, nullable, runs) ->
      let schema = Storage.Schema.make_nullable "p" [ ("v", ty, nullable) ] in
      let value = function
        | None when nullable -> V.Null
        | c -> (
            let i = Option.value c ~default:0 in
            match ty with
            | V.Date -> V.VDate i
            | V.Varchar _ -> V.VStr (Printf.sprintf "s%d" (abs (i mod 50)))
            | _ -> V.VInt i)
      in
      let rows =
        Array.of_list
          (List.concat_map (fun (c, len) -> List.init len (fun _ -> value c)) runs)
      in
      let cat = Storage.Catalog.create () in
      let rel = Storage.Catalog.add cat schema (Storage.Layout.column schema) in
      Relation.load rel ~n:(Array.length rows) (fun ~row -> [| rows.(row) |]);
      let st = (Compress.analyze rel).(0) in
      let schemes =
        [ Encoding.Plain; Encoding.Dict; Encoding.Rle ]
        @ (if nullable then [ Encoding.Sparse ] else [])
        @
        match ty with
        | V.Int | V.Date -> List.map (fun w -> Encoding.For_bp w) [ 1; 2; 4 ]
        | _ -> []
      in
      List.for_all
        (fun e ->
          let stored = Relation.recompress rel [ (0, e) ] in
          Relation.encoding stored 0 = e
          && Relation.side_entries stored 0 = Compress.entries st e
          && Relation.storage_bytes stored = Compress.encoded_bytes schema st e)
        schemes)

(* ------------------------------------------------------------------ *)
(* Predicates on the stored representation                             *)
(* ------------------------------------------------------------------ *)

(* One draw for the stored-form filters: a column [v] beside a plain int
   [k] (in [k]'s partition under [row] where the scheme allows it), loaded
   in runs, overwritten (a FOR value pushed out of its code window and back
   in, RLE runs split and merged) and appended to, then read through an
   optional window of its rows.  A cell is an int, boxed by the column's
   type, or NULL. *)
type filter_case = {
  ty : V.ty;
  nullable : bool;
  enc : Encoding.t;
  row : bool;
  loaded : (int option * int) list; (* (cell, run length) *)
  writes : (int * int option) list; (* (tid modulo the loaded rows, cell) *)
  appended : int option list;
  window : (int * int) option; (* (lo, len) in thousandths of the rows *)
  pred : Relalg.Expr.t;
  params : V.t array;
}

let box_cell ty = function
  | None -> V.Null
  | Some k -> (
      match ty with
      | V.Date -> V.VDate k
      | V.Varchar _ -> V.VStr (Printf.sprintf "s%d" k)
      | _ -> V.VInt k)

let gen_filter_case =
  let open QCheck.Gen in
  let module Expr = Relalg.Expr in
  let* ty = oneofl [ V.Int; V.Date; V.Varchar 24 ] in
  let* nullable = bool in
  let* enc =
    oneofl
      ([ Encoding.Plain; Encoding.Dict; Encoding.Rle ]
      @ (if nullable then [ Encoding.Sparse ] else [])
      @
      match ty with
      | V.Int | V.Date -> List.map (fun w -> Encoding.For_bp w) [ 1; 2; 4 ]
      | _ -> [])
  in
  let* row = bool in
  let* base = oneofl [ -1_000; 0; 5_000 ] in
  let near = map (fun d -> base + d) (int_range 0 15) in
  let far = oneofl [ base + 100_000; base - 40_000; max_int; min_int ] in
  let cell =
    frequency
      ((if nullable then [ (1, return None) ] else [])
      @ [ (8, map Option.some near); (1, map Option.some far) ])
  in
  let* loaded = list_size (int_range 0 30) (pair cell (int_range 1 20)) in
  let* writes = list_size (int_range 0 12) (pair nat cell) in
  let* out_and_back = list_size (int_range 0 4) (triple nat far near) in
  let writes =
    writes
    @ List.concat_map
        (fun (tid, x, y) -> [ (tid, Some x); (tid, Some y) ])
        out_and_back
  in
  let* appended = list_size (int_range 0 10) cell in
  let* window = opt (pair (int_range 0 1000) (int_range 0 1000)) in
  (* constants at and beside the widen-only bounds, and at stored values *)
  let ints =
    List.filter_map fst loaded
    @ List.filter_map snd writes
    @ List.filter_map Fun.id appended
  in
  let at_bounds =
    match ints with
    | [] -> [ base ]
    | k :: ks ->
        let lo = List.fold_left min k ks and hi = List.fold_left max k ks in
        [ lo; hi; lo - 1; hi + 1 ]
  in
  let const =
    map
      (fun k -> box_cell ty (Some k))
      (frequency
         [ (3, oneofl at_bounds); (2, oneofl (base :: ints)); (1, near) ])
  in
  let* op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let* c = const in
  let* c' = const in
  let v = Expr.Col 1 in
  let* pred, params =
    oneofl
      ([
         (Expr.Cmp (op, v, Expr.Const c), [||]);
         (Expr.Cmp (op, v, Expr.Param 1), [| c |]);
         (Expr.Cmp (op, Expr.Const c, v), [||]);
         (Expr.IsNull v, [||]);
         (Expr.Not (Expr.IsNull v), [||]);
         (Expr.Or [ Expr.Cmp (Expr.Eq, v, Expr.Const c); Expr.Cmp (Expr.Eq, v, Expr.Const c') ], [||]);
         (Expr.And [ Expr.Cmp (Expr.Ge, v, Expr.Const c); Expr.Cmp (Expr.Le, v, Expr.Const c') ], [||]);
       ]
      @
      match ty with
      | V.Varchar _ -> []
      | _ ->
          [
            ( Expr.Cmp
                (op, v, Expr.Arith (Expr.Add, Expr.Const c, Expr.Const (V.VInt 1))),
              [||] );
          ])
  in
  return
    { ty; nullable; enc; row; loaded; writes; appended; window; pred; params }

let print_filter_case c =
  let cell = function Some k -> string_of_int k | None -> "_" in
  Format.asprintf
    "%a%s %a %s; loaded %s; writes %s; appended %s; window %s; %s [%s]" V.pp_ty
    c.ty
    (if c.nullable then " null" else "")
    Encoding.pp c.enc
    (if c.row then "row" else "column")
    (String.concat ";"
       (List.map (fun (k, len) -> Printf.sprintf "%sx%d" (cell k) len) c.loaded))
    (String.concat ";"
       (List.map (fun (tid, k) -> Printf.sprintf "%d:=%s" tid (cell k)) c.writes))
    (String.concat ";" (List.map cell c.appended))
    (match c.window with
    | Some (a, b) -> Printf.sprintf "%d/%d" a b
    | None -> "none")
    (Relalg.Expr.to_string c.pred)
    (String.concat ";" (Array.to_list (Array.map V.to_display c.params)))

(* QCheck: [Relation.filter_scan], [point_test] and [runs] answer what a
   per-tuple [Relation.get] plus the predicate answers.  The scan's ranges
   are ascending and disjoint, hold exactly the passing rows of the view,
   and a code scan's ranges are maximal; a range given with its value holds
   it on every row.  The point test agrees row by row.  Runs tile the view
   with maximal runs.  The calls answer [None] for every other storage:
   plain, sparse, and a nullable dictionary or frame of reference.  The
   conjunct's bounds verdict over the widen-only range of every value
   written never drops a live row: [All] only when every live value
   passes, [Nothing] only when none does. *)
let qcheck_stored_filters =
  QCheck.Test.make ~count:500
    ~name:"stored-form filters = get plus the predicate"
    (QCheck.make ~print:print_filter_case gen_filter_case)
    (fun c ->
      let module Expr = Relalg.Expr in
      let schema =
        Storage.Schema.make_nullable "f"
          [ ("k", V.Int, false); ("v", c.ty, c.nullable) ]
      in
      let encodings = if c.enc = Encoding.Plain then [] else [ (1, c.enc) ] in
      let layout =
        Compress.singleton_layout schema
          ((if c.row then Storage.Layout.row else Storage.Layout.column) schema)
          encodings
      in
      let cat = Storage.Catalog.create () in
      let owner = Storage.Catalog.add ~encodings cat schema layout in
      let written = ref [] in
      let store k = Option.iter (fun k -> written := k :: !written) k in
      let loaded =
        Array.of_list
          (List.concat_map (fun (k, len) -> List.init len (fun _ -> k)) c.loaded)
      in
      let n0 = Array.length loaded in
      Array.iter store loaded;
      Relation.load owner ~n:n0 (fun ~row ->
          [| V.VInt row; box_cell c.ty loaded.(row) |]);
      if n0 > 0 then
        List.iter
          (fun (tid, k) ->
            store k;
            Relation.set owner (tid mod n0) 1 (box_cell c.ty k))
          c.writes;
      List.iter
        (fun k ->
          store k;
          ignore (Relation.append owner [| V.VInt 0; box_cell c.ty k |]))
        c.appended;
      let rel =
        match c.window with
        | None -> owner
        | Some (a, b) ->
            let n = Relation.nrows owner in
            let lo = n * a / 1000 in
            let view = Relation.with_hier owner None in
            Relation.reslice view ~lo ~len:((n - lo) * b / 1000);
            view
      in
      let n = Relation.nrows rel in
      let value tid = Relation.get rel tid 1 in
      let want =
        Array.init n (fun tid ->
            Expr.truthy (Expr.eval c.pred ~params:c.params (fun _ -> value tid)))
      in
      let cj = Option.get (Engines.Runtime.conjunct ~params:c.params rel c.pred) in
      let coded =
        (not c.nullable)
        && match c.enc with Encoding.Dict | Encoding.For_bp _ -> true | _ -> false
      in
      let scan_ok =
        match
          Relation.filter_scan rel 1 ~test:cj.test ~bounds:cj.bounds
            ~charge:ignore
        with
        | None -> not (coded || c.enc = Encoding.Rle)
        | Some scan ->
            let got = Array.make n false and last = ref (-1) and ok = ref true in
            scan (fun ~lo ~len v ->
                let disjoint =
                  match v with Some _ -> lo >= !last | None -> lo > !last
                in
                if len < 1 || not disjoint || lo + len > n then ok := false
                else
                  for tid = lo to lo + len - 1 do
                    got.(tid) <- true;
                    match v with
                    | Some x when not (V.equal x (value tid)) -> ok := false
                    | _ -> ()
                  done;
                last := lo + len);
            (coded || c.enc = Encoding.Rle) && !ok && got = want
      in
      let point_ok =
        match Relation.point_test rel 1 ~test:cj.test ~charge:ignore with
        | None -> not coded
        | Some test ->
            coded && List.for_all (fun tid -> test tid = want.(tid)) (List.init n Fun.id)
      in
      let runs_ok =
        match Relation.runs rel 1 with
        | None -> c.enc <> Encoding.Rle
        | Some runs ->
            let next = ref 0 and prev = ref None and ok = ref true in
            runs (fun ~lo ~len x ->
                if lo <> !next || len < 1 then ok := false;
                (match !prev with
                | Some p when V.equal p x -> ok := false
                | _ -> ());
                for tid = lo to min n (lo + len) - 1 do
                  if not (V.equal x (value tid)) then ok := false
                done;
                next := lo + len;
                prev := Some x);
            c.enc = Encoding.Rle && !ok && !next = n
      in
      let verdict_ok =
        match !written with
        | [] -> true
        | k :: ks -> (
            let live =
              List.filter_map
                (fun tid ->
                  match value tid with V.Null -> None | v -> Some v)
                (List.init n Fun.id)
            in
            match
              cj.bounds ~min:(List.fold_left min k ks)
                ~max:(List.fold_left max k ks)
            with
            | Storage.Relation.All -> List.for_all cj.test live
            | Nothing -> not (List.exists cj.test live)
            | Scan -> true)
      in
      scan_ok && point_ok && runs_ok && verdict_ok)

(* ------------------------------------------------------------------ *)
(* Direct execution                                                    *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    (* RLE pushdown: run-granular range scan *)
    "select id from cmp where grp >= 2 and grp < 4";
    (* dictionary pushdown: bitmap over distinct values *)
    "select count(*) c from cmp where tag = 't03'";
    (* FOR pushdown: range pruning plus decode *)
    "select count(*) c from cmp where base < 100010";
    "select sum(base) s from cmp where base >= 100085";
    (* run-granular grouped aggregation *)
    "select grp, count(*) c, sum(base) s from cmp group by grp";
    (* sparse + compressed mix under a join-free pipeline *)
    "select id, note from cmp where note is not null";
    (* predicate with no survivors: prune verdict `None *)
    "select count(*) c from cmp where base > 200000";
  ]

let test_engines_match_plain () =
  let cat_plain, _ = build ~encodings:[] 500 in
  let encodings = all_schemes @ [ (4, Encoding.Sparse) ] in
  let cat_comp, _ = build ~encodings 500 in
  List.iter
    (fun sql ->
      let reference =
        Helpers.sorted_rows (Helpers.run_sql ~engine:Engine.Jit cat_plain sql)
      in
      List.iter
        (fun engine ->
          Helpers.check_rows
            (Printf.sprintf "%s: %s" (Engine.name engine) sql)
            reference
            (Helpers.sorted_rows (Helpers.run_sql ~engine cat_comp sql)))
        Engine.all)
    queries

let test_fastpath_counter_identity () =
  (* the compressed execution paths must trace the identical access stream
     under the optimized and the reference per-word tracer *)
  let run hier sql =
    let cat, _ = build ~hier ~encodings:all_schemes 400 in
    Memsim.Hierarchy.reset hier;
    ignore (Helpers.run_sql ~engine:Engine.Jit cat sql);
    Memsim.Hierarchy.stats hier
  in
  List.iter
    (fun sql ->
      let fast = run (Memsim.Hierarchy.create ()) sql
      and slow = run (Memsim_ref.hierarchy ()) sql in
      Alcotest.(check bool)
        (Printf.sprintf "counters identical: %s" sql)
        true (fast = slow))
    [
      "select id from cmp where grp = 3";
      "select grp, sum(base) s from cmp group by grp";
      "select count(*) c from cmp where base < 100020";
    ]

let test_compressed_scan_cheaper () =
  (* acceptance: on the RLE/FOR-friendly table both simulated cycles and L2
     misses drop against plain storage *)
  let measure engine encodings sql =
    let cat, _ = build ~encodings 20_000 in
    let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
    let _, st = Engine.run_measured engine cat plan ~params:[||] in
    st
  in
  List.iter
    (fun (engine, sql) ->
      let plain = measure engine [] sql in
      let comp = measure engine all_schemes sql in
      Alcotest.(check bool)
        (Printf.sprintf "fewer cycles: %s" sql)
        true
        (Memsim.Stats.total_cycles comp < Memsim.Stats.total_cycles plain);
      Alcotest.(check bool)
        (Printf.sprintf "fewer L2 misses: %s" sql)
        true
        (comp.Memsim.Stats.l2_misses < plain.Memsim.Stats.l2_misses))
    [
      (* run-granular grouped aggregation is the bulk engine's path *)
      (Engine.Bulk, "select grp, count(*) c from cmp group by grp");
      (Engine.Jit, "select count(*) c from cmp where grp = 100");
    ]

(* ------------------------------------------------------------------ *)
(* Cost model and optimizer                                            *)
(* ------------------------------------------------------------------ *)

let test_model_predicts_compression_benefit () =
  let est encodings =
    let cat, _ = build ~encodings 5_000 in
    let plan =
      Relalg.Planner.plan cat
        (Relalg.Sql.parse cat "select grp, count(*) c from cmp group by grp")
    in
    Costmodel.Model.query_cost cat plan
  in
  Alcotest.(check bool) "model predicts RLE benefit" true
    (est [ (1, Encoding.Rle) ] < est [])

let test_hint_costing_matches_live_encoding () =
  (* costing a plain table under encoding hints must agree with costing the
     actually-encoded table (same stats, same atoms) *)
  let cat_plain, rel = build ~encodings:[ (1, Encoding.Rle) ] 2_000 in
  ignore rel;
  let sql = "select grp, count(*) c from cmp group by grp" in
  let plan = Relalg.Planner.plan cat_plain (Relalg.Sql.parse cat_plain sql) in
  let live = Costmodel.Model.query_cost cat_plain plan in
  let cat0, rel0 = build ~encodings:[] 2_000 in
  let st = (Compress.analyze rel0).(1) in
  let hint =
    { Costmodel.Emit.enc = Encoding.Rle; entries = Compress.entries st Encoding.Rle }
  in
  let plan0 = Relalg.Planner.plan cat0 (Relalg.Sql.parse cat0 sql) in
  let hinted =
    Costmodel.Model.query_cost ~encodings:[ ("cmp", [ (1, hint) ]) ] cat0 plan0
  in
  Alcotest.(check bool)
    (Printf.sprintf "hinted %.3g within 1%% of live %.3g" hinted live)
    true
    (abs_float (hinted -. live) /. live < 0.01)

let test_optimizer_picks_compression () =
  let cat, _ = build ~encodings:[] 4_000 in
  let wl =
    List.map
      (fun sql -> (Relalg.Planner.plan cat (Relalg.Sql.parse cat sql), 1.0))
      [
        "select grp, count(*) c from cmp group by grp";
        "select count(*) c from cmp where tag = 't03'";
        "select sum(base) s from cmp where grp = 10";
      ]
  in
  let r = Layoutopt.Optimizer.optimize_table ~compress:true cat "cmp" wl in
  Alcotest.(check bool) "selects at least one encoding" true
    (r.Layoutopt.Optimizer.encodings <> []);
  Alcotest.(check bool) "compressed design is the cheaper one" true
    (r.Layoutopt.Optimizer.estimated_cost
    <= r.Layoutopt.Optimizer.row_cost +. 1e-6);
  (* applying the result must preserve the data and install the encodings *)
  Layoutopt.Optimizer.apply cat [ r ];
  let rel = Storage.Catalog.find cat "cmp" in
  Alcotest.(check bool) "encodings installed" true
    (Relation.encodings rel <> []);
  Alcotest.(check Helpers.row_testable) "data intact" (row_of 123)
    (Relation.get_tuple rel 123)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_account_compression () =
  let cat, _ = build ~encodings:[] 1_000 in
  let before_bytes =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compress_rle_bytes_before_total")
  in
  let after_bytes =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compress_rle_bytes_after_total")
  in
  Compress.apply cat "cmp" [ (1, Encoding.Rle) ];
  let d_before =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compress_rle_bytes_before_total")
    - before_bytes
  and d_after =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compress_rle_bytes_after_total")
    - after_bytes
  in
  Alcotest.(check bool) "bytes accounted" true (d_before > 0);
  Alcotest.(check bool)
    (Printf.sprintf "rle shrinks bytes (%d -> %d)" d_before d_after)
    true
    (d_after < d_before);
  let ratio =
    Obs.Metrics.gauge_value (Obs.Metrics.gauge "mrdb_compress_ratio_cmp")
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio gauge below 1 (%.3f)" ratio)
    true
    (ratio > 0. && ratio < 1.)

let test_decode_counter_ticks () =
  let cat, rel = build ~encodings:[ (3, Encoding.For_bp 1) ] 100 in
  ignore cat;
  let decodes () =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter "mrdb_compress_decodes_total")
  in
  let before = decodes () in
  ignore (Relation.get rel 5 3);
  Alcotest.(check bool) "decode counted" true (decodes () > before)

let suite =
  [
    Alcotest.test_case "advisor chooses schemes" `Quick
      test_advisor_chooses_schemes;
    Alcotest.test_case "advisor deterministic" `Quick test_advisor_deterministic;
    Alcotest.test_case "rle roundtrip" `Quick test_rle_roundtrip;
    Alcotest.test_case "for roundtrip" `Quick test_for_roundtrip;
    Alcotest.test_case "for exceptions roundtrip" `Quick
      test_for_exceptions_roundtrip;
    Alcotest.test_case "updates roundtrip" `Quick test_updates_roundtrip;
    Alcotest.test_case "append roundtrip" `Quick test_append_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrips;
    QCheck_alcotest.to_alcotest qcheck_predicted_side_region;
    QCheck_alcotest.to_alcotest qcheck_stored_filters;
    Alcotest.test_case "engines match plain" `Quick test_engines_match_plain;
    Alcotest.test_case "fastpath counter identity" `Quick
      test_fastpath_counter_identity;
    Alcotest.test_case "compressed scan cheaper" `Slow
      test_compressed_scan_cheaper;
    Alcotest.test_case "model predicts benefit" `Quick
      test_model_predicts_compression_benefit;
    Alcotest.test_case "hinted cost matches live" `Quick
      test_hint_costing_matches_live_encoding;
    Alcotest.test_case "optimizer picks compression" `Quick
      test_optimizer_picks_compression;
    Alcotest.test_case "metrics account compression" `Quick
      test_metrics_account_compression;
    Alcotest.test_case "decode counter ticks" `Quick test_decode_counter_ticks;
  ]
