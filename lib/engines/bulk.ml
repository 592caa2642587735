module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Buffer = Storage.Buffer
module Schema = Storage.Schema
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

type ctx = {
  cat : Catalog.t;
  params : Value.t array;
  hier : Memsim.Hierarchy.t option;
  arena : Storage.Arena.t;
  per_value : int;
}

let charge ctx n = Runtime.charge ctx.hier n

(* ------------------------------------------------------------------ *)
(* Materialized vectors                                                *)
(* ------------------------------------------------------------------ *)

type posvec = { pbuf : Buffer.t; mutable pn : int }

let posvec_create ctx ~capacity =
  { pbuf = Buffer.create ctx.arena ?hier:ctx.hier (max 64 (capacity * 8)); pn = 0 }

let posvec_push ctx v tid =
  charge ctx ctx.per_value;
  Buffer.grow v.pbuf ((v.pn + 1) * 8);
  Buffer.write_int v.pbuf (v.pn * 8) tid;
  v.pn <- v.pn + 1

let posvec_get ctx v i =
  charge ctx ctx.per_value;
  Buffer.read_int v.pbuf (i * 8)

type colvec = {
  cbuf : Buffer.t;
  ty : Value.ty;
  nullable : bool;
  width : int;
  mutable cn : int;
}

let colvec_create ctx ~ty ~nullable ~capacity =
  let width = Value.data_width ty + if nullable then 1 else 0 in
  {
    cbuf = Buffer.create ctx.arena ?hier:ctx.hier (max 64 (capacity * width));
    ty;
    nullable;
    width;
    cn = 0;
  }

let colvec_push ctx v value =
  charge ctx ctx.per_value;
  Buffer.grow v.cbuf ((v.cn + 1) * v.width);
  Buffer.write_value v.cbuf (v.cn * v.width) ~ty:v.ty ~nullable:v.nullable value;
  v.cn <- v.cn + 1

let colvec_get ctx v i =
  charge ctx ctx.per_value;
  Buffer.read_value v.cbuf (i * v.width) ~ty:v.ty ~nullable:v.nullable

(* ------------------------------------------------------------------ *)
(* Intermediate results                                                *)
(* ------------------------------------------------------------------ *)

type src =
  | Base of Relation.t * posvec option
  | Mat of colvec option array * int (* materialized columns, row count *)

let src_count = function
  | Base (rel, None) -> Relation.nrows rel
  | Base (_, Some pos) -> pos.pn
  | Mat (_, n) -> n

(* read column [col] of logical row [i] *)
let src_get ctx src i col =
  match src with
  | Base (rel, pos) ->
      let tid =
        match pos with None -> i | Some p -> posvec_get ctx p i
      in
      charge ctx ctx.per_value;
      Relation.get rel tid col
  | Mat (cols, _) -> (
      match cols.(col) with
      | Some v -> colvec_get ctx v i
      | None -> invalid_arg "Bulk: column was not materialized")

let eval_expr ctx src i e =
  charge ctx ctx.per_value;
  Expr.eval e ~params:ctx.params (fun col -> src_get ctx src i col)

let src_schema ctx plan = Physical.schema ctx.cat plan

let block = 1024

(* Batched column materialization: the source is a whole base relation and
   the column is stored plain and non-nullable, so both the stored column
   and the destination vector are fixed-stride runs.  [charges] is the
   per-tuple CPU charge of the loop being replaced (evaluation + read +
   push charges), kept identical to the generic path. *)
let mat_col_run ctx rel c ~charges v =
  let n = Relation.nrows rel in
  if n > 0 then begin
    let vals = Array.make (min block n) Value.Null in
    Buffer.grow v.cbuf ((v.cn + n) * v.width);
    let lo = ref 0 in
    while !lo < n do
      let m = min block (n - !lo) in
      Relation.read_value_run rel ~lo:!lo ~count:m c vals;
      charge ctx (charges * ctx.per_value * m);
      Buffer.write_value_run v.cbuf (v.cn * v.width) ~stride:v.width ~ty:v.ty
        ~count:m vals;
      v.cn <- v.cn + m;
      lo := !lo + m
    done
  end

(* Materialize the listed columns of [src] into a Mat. *)
let materialize ctx (schema : Schema.attr array) src cols =
  let n = src_count src in
  let out = Array.make (Array.length schema) None in
  List.iter
    (fun c ->
      let a = schema.(c) in
      let v =
        colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
          ~capacity:n
      in
      (match src with
      | Base (rel, None) when Relation.run_readable rel c && not v.nullable ->
          mat_col_run ctx rel c ~charges:2 v
      | _ ->
          for i = 0 to n - 1 do
            colvec_push ctx v (src_get ctx src i c)
          done);
      out.(c) <- Some v)
    cols;
  Mat (out, n)

(* Append [k] surviving tids to a posvec as one run. *)
let posvec_push_run ctx v surv k =
  if k > 0 then begin
    charge ctx (ctx.per_value * k);
    Buffer.grow v.pbuf ((v.pn + k) * 8);
    Buffer.write_int_run v.pbuf (v.pn * 8) ~count:k surv;
    v.pn <- v.pn + k
  end

(* Selection the bulk way: one pass per conjunct over the current candidate
   positions, materializing the surviving positions each time. *)
let filter_base ctx rel pos pred =
  let conjs = Expr.conjuncts pred in
  List.fold_left
    (fun pos conj ->
      let n = match pos with None -> Relation.nrows rel | Some p -> p.pn in
      let keep = posvec_create ctx ~capacity:(max 16 (n / 4)) in
      let generic () =
        for i = 0 to n - 1 do
          let tid = match pos with None -> i | Some p -> posvec_get ctx p i in
          charge ctx ctx.per_value;
          let v =
            Expr.eval conj ~params:ctx.params (fun col ->
                charge ctx ctx.per_value;
                Relation.get rel tid col)
          in
          if Expr.truthy v then posvec_push ctx keep tid
        done
      in
      let analysed = Runtime.conjunct ~params:ctx.params rel conj in
      let charge_values k = charge ctx (ctx.per_value * k) in
      let stored_scan =
        match (pos, analysed) with
        | None, Some { col; test; bounds; _ } ->
            Relation.filter_scan rel col ~test ~bounds ~charge:charge_values
        | _ -> None
      in
      (match stored_scan with
      | Some scan ->
          (* survivors arrive as ascending tid ranges; push them as runs *)
          let surv = Array.make block 0 in
          scan (fun ~lo ~len _ ->
              let off = ref 0 in
              while !off < len do
                let m = min block (len - !off) in
                for i = 0 to m - 1 do
                  Array.unsafe_set surv i (lo + !off + i)
                done;
                posvec_push_run ctx keep surv m;
                off := !off + m
              done)
      | None ->
      match analysed with
      | Some { col = c; int_test = Some test; _ } when n > 0 -> (
          (* Per-tuple charges mirror the generic loop below: one evaluation
             charge, one column-read charge, plus (for a position input) one
             posvec-read charge; each survivor adds one push charge. *)
          let surv = Array.make (min block n) 0 in
          match pos with
          | None ->
              let vals = Array.make (min block n) 0 in
              let lo = ref 0 in
              while !lo < n do
                let m = min block (n - !lo) in
                Relation.read_int_run rel ~lo:!lo ~count:m c vals;
                charge ctx (2 * ctx.per_value * m);
                let k = ref 0 in
                for i = 0 to m - 1 do
                  if test (Array.unsafe_get vals i) then begin
                    Array.unsafe_set surv !k (!lo + i);
                    incr k
                  end
                done;
                posvec_push_run ctx keep surv !k;
                lo := !lo + m
              done
          | Some p ->
              let read = Relation.int_reader rel c in
              let tids = Array.make (min block n) 0 in
              let lo = ref 0 in
              while !lo < n do
                let m = min block (n - !lo) in
                Buffer.read_int_run p.pbuf (!lo * 8) ~count:m tids;
                charge ctx (3 * ctx.per_value * m);
                let k = ref 0 in
                for i = 0 to m - 1 do
                  let tid = Array.unsafe_get tids i in
                  if test (read tid) then begin
                    Array.unsafe_set surv !k tid;
                    incr k
                  end
                done;
                posvec_push_run ctx keep surv !k;
                lo := !lo + m
              done)
      | _ -> (
          match
            ( pos,
              Option.bind analysed (fun { Runtime.col; test; _ } ->
                  Relation.point_test rel col ~test ~charge:charge_values) )
          with
          | Some p, Some test when n > 0 ->
              (* position input over a column whose storage tests one row
                 by its stored code: charges mirroring the generic loop *)
              for i = 0 to n - 1 do
                let tid = posvec_get ctx p i in
                charge ctx (2 * ctx.per_value);
                if test tid then posvec_push ctx keep tid
              done
          | _ -> generic ()));
      Some keep)
    pos conjs

let filter_mat ctx schema cols n pred =
  let src = Mat (cols, n) in
  let avail =
    Array.to_list
      (Array.mapi (fun i c -> if c = None then None else Some i) cols)
    |> List.filter_map Fun.id
  in
  let keep = ref [] in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Expr.truthy (eval_expr ctx src i pred) then begin
      keep := i :: !keep;
      incr count
    end
  done;
  let keep = Array.of_list (List.rev !keep) in
  let out = Array.make (Array.length cols) None in
  List.iter
    (fun c ->
      let a = schema.(c) in
      let v =
        colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
          ~capacity:!count
      in
      Array.iter (fun i -> colvec_push ctx v (src_get ctx src i c)) keep;
      out.(c) <- Some v)
    avail;
  Mat (out, !count)

(* Emit a finished aggregation table as materialized output columns. *)
let group_emit ctx plan keys table =
  let schema = src_schema ctx plan in
  let out =
    Array.map
      (fun (a : Schema.attr) ->
        Some
          (colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
             ~capacity:16))
      schema
  in
  let n_keys = List.length keys in
  let count = ref 0 in
  Prof.phase "emit" (fun () ->
      Runtime.Agg_table.emit table (fun key finished ->
          List.iteri
            (fun j v ->
              match out.(j) with
              | Some vec -> colvec_push ctx vec v
              | None -> ())
            key;
          Array.iteri
            (fun j v ->
              match out.(n_keys + j) with
              | Some vec -> colvec_push ctx vec v
              | None -> ())
            finished;
          incr count));
  Mat (out, !count)

(* Columns of its input that the remaining plan needs from this operator's
   output (computed by the caller and passed down). *)
let rec eval ctx path (plan : Physical.t) ~(needed : int list) : src =
  if Prof.on () then Prof.op path plan (fun () -> eval_raw ctx path plan ~needed)
  else eval_raw ctx path plan ~needed

and eval_raw ctx path (plan : Physical.t) ~(needed : int list) : src =
  match plan with
  | Physical.Scan { table; access; post; _ } -> (
      let rel = Catalog.find ctx.cat table in
      let pos =
        Option.map
          (fun tids ->
            let v = posvec_create ctx ~capacity:(List.length tids) in
            List.iter (fun t -> posvec_push ctx v t) tids;
            v)
          (Dml.index_tids ctx.cat ctx.params table access)
      in
      match post with
      | None -> Base (rel, pos)
      | Some pred -> Base (rel, filter_base ctx rel pos pred))
  | Physical.Select { child; pred; _ } -> (
      let child_needed =
        List.sort_uniq compare (needed @ Expr.cols pred)
      in
      match eval ctx (Prof.child path 0) child ~needed:child_needed with
      | Base (rel, pos) -> Base (rel, filter_base ctx rel pos pred)
      | Mat (cols, n) ->
          filter_mat ctx (src_schema ctx child) cols n pred)
  | Physical.Project { child; exprs } ->
      let exprs = Array.of_list (List.map fst exprs) in
      let child_needed =
        List.sort_uniq compare
          (List.concat_map Expr.cols (Array.to_list exprs))
      in
      let src = eval ctx (Prof.child path 0) child ~needed:child_needed in
      let n = src_count src in
      let schema = src_schema ctx plan in
      let out =
        Array.mapi
          (fun j (a : Schema.attr) ->
            let v =
              colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
                ~capacity:n
            in
            (match (exprs.(j), src) with
            | Expr.Col c, Base (rel, None)
              when Relation.run_readable rel c && not v.nullable ->
                mat_col_run ctx rel c ~charges:3 v
            | _ ->
                for i = 0 to n - 1 do
                  colvec_push ctx v (eval_expr ctx src i exprs.(j))
                done);
            Some v)
          schema
      in
      Mat (out, n)
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      let build_schema = src_schema ctx build in
      let build_arity = Array.length build_schema in
      let needed_build =
        List.sort_uniq compare
          (build_keys @ List.filter (fun c -> c < build_arity) needed)
      in
      let needed_probe =
        List.sort_uniq compare
          (probe_keys
          @ List.filter_map
              (fun c -> if c >= build_arity then Some (c - build_arity) else None)
              needed)
      in
      let bsrc = eval ctx (Prof.child path 0) build ~needed:needed_build in
      let psrc = eval ctx (Prof.child path 1) probe ~needed:needed_probe in
      let ht =
        Runtime.Sim_hash.create ?hier:ctx.hier ctx.arena ~entry_width:16 ()
      in
      let bsrc =
        Prof.phase "build" (fun () ->
            let bsrc =
              match bsrc with
              | Mat _ -> bsrc
              | Base _ -> materialize ctx build_schema bsrc needed_build
            in
            let bn = src_count bsrc in
            for i = 0 to bn - 1 do
              let key = List.map (fun c -> src_get ctx bsrc i c) build_keys in
              Runtime.Sim_hash.add ht ~key i
            done;
            bsrc)
      in
      let pn = src_count psrc in
      let schema = src_schema ctx plan in
      let out_cols =
        Array.mapi
          (fun j (a : Schema.attr) ->
            if List.mem j needed then
              Some
                (colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
                   ~capacity:(max 16 pn))
            else None)
          schema
      in
      let out_n = ref 0 in
      Prof.phase "probe" (fun () ->
          for i = 0 to pn - 1 do
            let key = List.map (fun c -> src_get ctx psrc i c) probe_keys in
            Runtime.Sim_hash.iter_matches ht ~key (fun bi ->
                Array.iteri
                  (fun j v ->
                    match v with
                    | None -> ()
                    | Some v ->
                        let value =
                          if j < build_arity then src_get ctx bsrc bi j
                          else src_get ctx psrc i (j - build_arity)
                        in
                        colvec_push ctx v value)
                  out_cols;
                incr out_n)
          done);
      Mat (out_cols, !out_n)
  | Physical.Group_by { child; keys; aggs; _ } ->
      let key_exprs = List.map fst keys in
      let child_needed =
        List.sort_uniq compare
          (List.concat_map Expr.cols key_exprs
          @ List.concat_map
              (fun (a : Aggregate.t) ->
                match a.Aggregate.expr with Some e -> Expr.cols e | None -> [])
              aggs)
      in
      let src = eval ctx (Prof.child path 0) child ~needed:child_needed in
      let n = src_count src in
      let child_schema = src_schema ctx child in
      (* run-granular aggregation: grouping by a whole column its storage
         gives as runs, with every aggregate argument on that same column,
         folds each run into one accumulator update *)
      let run_group =
        match (src, key_exprs) with
        | Base (rel, None), [ Expr.Col g ]
          when List.for_all
                 (fun (a : Aggregate.t) ->
                   match a.Aggregate.expr with
                   | None -> true
                   | Some (Expr.Col c) -> c = g
                   | Some _ -> false)
                 aggs ->
            Relation.runs rel g
        | _ -> None
      in
      (match run_group with
      | Some runs ->
          let table =
            Runtime.Agg_table.create ?hier:ctx.hier ctx.arena ~aggs
              ~global:false ~key_width:16 ()
          in
          let agg_arr = Array.of_list aggs in
          let per_run_charge = ctx.per_value * (1 + Array.length agg_arr) in
          Prof.phase "accumulate" (fun () ->
              runs (fun ~lo:_ ~len v ->
                  charge ctx per_run_charge;
                  let inputs =
                    Array.map
                      (fun (a : Aggregate.t) ->
                        match a.Aggregate.expr with
                        | Some _ -> v
                        | None -> Value.Null)
                      agg_arr
                  in
                  Runtime.Agg_table.update_n table ~key:[ v ] ~inputs
                    ~count:len));
          group_emit ctx plan keys table
      | None ->
      (* bulk style: materialize key and argument vectors first *)
      let mat_expr e =
        let ty, nullable = Relalg.Plan.type_of_expr child_schema e in
        let v = colvec_create ctx ~ty ~nullable ~capacity:n in
        (match (e, src) with
        | Expr.Col c, Base (rel, None)
          when Relation.run_readable rel c && not v.nullable ->
            mat_col_run ctx rel c ~charges:3 v
        | _ ->
            for i = 0 to n - 1 do
              colvec_push ctx v (eval_expr ctx src i e)
            done);
        v
      in
      let key_vecs, agg_vecs =
        Prof.phase "materialize" (fun () ->
            ( List.map mat_expr key_exprs,
              List.map
                (fun (a : Aggregate.t) ->
                  match a.Aggregate.expr with
                  | Some e -> Some (mat_expr e)
                  | None -> None)
                aggs ))
      in
      let table =
        Runtime.Agg_table.create ?hier:ctx.hier ctx.arena ~aggs
          ~global:(keys = []) ~key_width:16 ()
      in
      let agg_vec_arr = Array.of_list agg_vecs in
      Prof.phase "accumulate" (fun () ->
          for i = 0 to n - 1 do
            let key = List.map (fun v -> colvec_get ctx v i) key_vecs in
            let inputs =
              Array.map
                (function
                  | Some v -> colvec_get ctx v i
                  | None -> Value.Null)
                agg_vec_arr
            in
            Runtime.Agg_table.update table ~key ~inputs
          done);
      group_emit ctx plan keys table)
  | Physical.Sort { child; keys } ->
      let schema = src_schema ctx child in
      let all = List.init (Array.length schema) Fun.id in
      let child_needed = List.sort_uniq compare (needed @ List.map fst keys @ all) in
      let src = eval ctx (Prof.child path 0) child ~needed:child_needed in
      let n = src_count src in
      let rows =
        List.init n (fun i ->
            Array.init (Array.length schema) (fun c -> src_get ctx src i c))
      in
      let sorted =
        Prof.phase "sort" (fun () ->
            Runtime.sort_rows ?hier:ctx.hier ctx.arena
              ~row_width:
                (max 8 (Schema.row_width { Schema.name = ""; attrs = schema }))
              ~keys rows)
      in
      let out =
        Array.map
          (fun (a : Schema.attr) ->
            Some
              (colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
                 ~capacity:n))
          schema
      in
      List.iter
        (fun row ->
          Array.iteri
            (fun j v ->
              match out.(j) with
              | Some vec -> colvec_push ctx vec v
              | None -> ())
            row)
        sorted;
      Mat (out, n)
  | Physical.Limit { child; n } ->
      let src = eval ctx (Prof.child path 0) child ~needed in
      let count = min n (src_count src) in
      let schema = src_schema ctx child in
      let avail =
        match src with
        | Base _ -> List.init (Array.length schema) Fun.id
        | Mat (cols, _) ->
            List.filter_map Fun.id
              (Array.to_list
                 (Array.mapi (fun i c -> if c = None then None else Some i) cols))
      in
      let out = Array.make (Array.length schema) None in
      List.iter
        (fun c ->
          let a = schema.(c) in
          let v =
            colvec_create ctx ~ty:a.Schema.ty ~nullable:a.Schema.nullable
              ~capacity:count
          in
          for i = 0 to count - 1 do
            colvec_push ctx v (src_get ctx src i c)
          done;
          out.(c) <- Some v)
        avail;
      Mat (out, count)
  | Physical.Update { table; access; post; assignments; _ } ->
      Dml.update ~per_value:ctx.per_value ~call_cost:0 ctx.cat
        ~params:ctx.params ~table ~access ~post ~assignments;
      Mat ([||], 0)
  | Physical.Insert { table; values } ->
      Dml.insert ~per_value:ctx.per_value ctx.cat ~params:ctx.params ~table
        ~values;
      Mat ([||], 0)

let run ?(per_value = Cpu_model.bulk_per_value) cat plan ~params =
  let ctx =
    { cat; params; hier = Catalog.hier cat; arena = Catalog.arena cat; per_value }
  in
  let schema = Physical.schema cat plan in
  let columns =
    Array.map (fun (a : Schema.attr) -> a.Schema.name) schema
  in
  let all = List.init (Array.length schema) Fun.id in
  let src = eval ctx (Prof.child Prof.root 0) plan ~needed:all in
  let n = src_count src in
  let rows =
    List.init n (fun i ->
        Array.init (Array.length schema) (fun c -> src_get ctx src i c))
  in
  { Runtime.columns; rows }
