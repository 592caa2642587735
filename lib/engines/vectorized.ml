module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Buffer = Storage.Buffer
module Schema = Storage.Schema
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

let vector_size = 1024

type ctx = {
  cat : Catalog.t;
  params : Value.t array;
  hier : Memsim.Hierarchy.t option;
  arena : Storage.Arena.t;
}

let charge ctx n = Runtime.charge ctx.hier n

(* The single-table pipeline shape this engine runs natively.  Each stage
   carries the span path of the plan operator it was fused from, so the
   profiler can attribute the fused loops back to the original operator
   tree (conjuncts keep the path of the Select — or Scan post-predicate —
   they came from). *)
type pipeline = {
  table : string;
  access : Physical.access;
  conjuncts : (Expr.t * string) list;
  group : ((Expr.t * string) list * Aggregate.t list) option;
  (* projection over the scan output (or over the group output) *)
  projection : (Expr.t * string) list option;
  sort : (int * Relalg.Plan.dir) list option;
  limit : int option;
  scan_path : string;
  scan_label : string;
  group_path : string;
  projection_path : string;
  sort_path : string;
  limit_path : string;
}

(* Decompose a plan into the pipeline shape; None = unsupported, fall back. *)
let extract (plan : Physical.t) : pipeline option =
  let path = Prof.child Prof.root 0 in
  let limit, path, plan, limit_path =
    match plan with
    | Physical.Limit { child; n } -> (Some n, Prof.child path 0, child, path)
    | p -> (None, path, p, path)
  in
  let sort, path, plan, sort_path =
    match plan with
    | Physical.Sort { child; keys } -> (Some keys, Prof.child path 0, child, path)
    | p -> (None, path, p, path)
  in
  let projection, path, plan, projection_path =
    match plan with
    | Physical.Project { child; exprs } ->
        (Some exprs, Prof.child path 0, child, path)
    | p -> (None, path, p, path)
  in
  let group, path, plan, group_path =
    match plan with
    | Physical.Group_by { child; keys; aggs; _ } ->
        (Some (keys, aggs), Prof.child path 0, child, path)
    | p -> (None, path, p, path)
  in
  let rec selects acc path = function
    | Physical.Select { child; pred; _ } ->
        selects
          (acc @ List.map (fun c -> (c, path)) (Expr.conjuncts pred))
          (Prof.child path 0) child
    | p -> (acc, path, p)
  in
  let above, path, plan = selects [] path plan in
  match plan with
  | Physical.Insert _ | Physical.Update _ -> None
  | Physical.Scan { table; access; post; _ } ->
      let conjuncts =
        (match post with
        | Some p -> List.map (fun c -> (c, path)) (Expr.conjuncts p)
        | None -> [])
        @ above
      in
      Some
        {
          table;
          access;
          conjuncts;
          group;
          projection;
          sort;
          limit;
          scan_path = path;
          scan_label = Prof.label plan;
          group_path;
          projection_path;
          sort_path;
          limit_path;
        }
  | _ -> None

let run_pipeline ctx (p : pipeline) : Value.t array list =
  (* construction-time gate, as in the other engines: with no session the
     stage thunks run unwrapped *)
  let prof = Prof.on () in
  let wrap path label f = if prof then Prof.op_id path ~label f else f () in
  let rel = Catalog.find ctx.cat p.table in
  let n = Relation.nrows rel in
  (* cache-resident working state, reused across vectors: a selection vector
     and one value slot per touched column of the current vector *)
  let selvec = Buffer.create ctx.arena ?hier:ctx.hier (vector_size * 8) in
  let scratch = Buffer.create ctx.arena ?hier:ctx.hier (vector_size * 8) in
  let group_state =
    Option.map
      (fun (keys, aggs) ->
        let table =
          Runtime.Agg_table.create ?hier:ctx.hier ctx.arena ~aggs
            ~global:(keys = []) ~key_width:16 ()
        in
        (keys, aggs, table))
      p.group
  in
  let rows = ref [] in
  let emit row = rows := row :: !rows in
  (* evaluate an expression for the tuple at [tid] *)
  let eval_at tid e =
    charge ctx Cpu_model.bulk_per_value;
    Expr.eval e ~params:ctx.params (fun col ->
        charge ctx Cpu_model.bulk_per_value;
        Relation.get rel tid col)
  in
  let tid_source =
    Option.map Array.of_list
      (Dml.index_tids ctx.cat ctx.params p.table p.access)
  in
  let total =
    match tid_source with Some tids -> Array.length tids | None -> n
  in
  (* scratch arrays mirroring the two simulator-resident vectors: tids move
     through the simulated buffers as whole runs, not element by element *)
  let tids_arr = Array.make vector_size 0 in
  let keep_arr = Array.make vector_size 0 in
  let chunk_start = ref 0 in
  while !chunk_start < total do
    let m = min vector_size (total - !chunk_start) in
    (* 1. fill the selection vector with the vector's tids (one run) *)
    wrap p.scan_path p.scan_label (fun () ->
        (match tid_source with
        | Some tids -> Array.blit tids !chunk_start tids_arr 0 m
        | None ->
            for i = 0 to m - 1 do
              tids_arr.(i) <- !chunk_start + i
            done);
        Buffer.write_int_run selvec 0 ~count:m tids_arr);
    (* 2. one pass per conjunct, compacting survivors into [scratch] *)
    let count = ref m in
    List.iter
      (fun (conj, conj_path) ->
        wrap conj_path "select" (fun () ->
            Buffer.read_int_run selvec 0 ~count:!count tids_arr;
            let kept = ref 0 in
            (* the conjunct is analysed, and its point test made, for
               every vector, so a dictionary column's verdicts are taken
               once per vector: the pinned traced counts include that *)
            let analysed = Runtime.conjunct ~params:ctx.params rel conj in
            (match analysed with
            | Some { col = c; int_test = Some test; _ } ->
                (* unboxed comparison; charges equal the generic evaluation:
                   one expression charge plus one column-read charge per
                   tuple *)
                let read = Relation.int_reader rel c in
                charge ctx (2 * Cpu_model.bulk_per_value * !count);
                for i = 0 to !count - 1 do
                  let tid = Array.unsafe_get tids_arr i in
                  if test (read tid) then begin
                    Array.unsafe_set keep_arr !kept tid;
                    incr kept
                  end
                done
            | _ -> (
                match
                  Option.bind analysed (fun { Runtime.col; test; _ } ->
                      Relation.point_test rel col ~test ~charge:(fun k ->
                          charge ctx (Cpu_model.bulk_per_value * k)))
                with
                | Some test ->
                    (* the column's storage tests one row by its stored
                       code; eval charges mirror the generic pass *)
                    charge ctx (2 * Cpu_model.bulk_per_value * !count);
                    for i = 0 to !count - 1 do
                      let tid = Array.unsafe_get tids_arr i in
                      if test tid then begin
                        Array.unsafe_set keep_arr !kept tid;
                        incr kept
                      end
                    done
                | None ->
                    for i = 0 to !count - 1 do
                      let tid = Array.unsafe_get tids_arr i in
                      if Expr.truthy (eval_at tid conj) then begin
                        Array.unsafe_set keep_arr !kept tid;
                        incr kept
                      end
                    done));
            Buffer.write_int_run scratch 0 ~count:!kept keep_arr;
            (* copy back: the two small buffers stay cache resident *)
            Buffer.touch_run scratch 0 ~width:8 ~count:!kept ~stride:8;
            Buffer.write_int_run selvec 0 ~count:!kept keep_arr;
            count := !kept))
      p.conjuncts;
    (* 3. sink: aggregate or project the survivors *)
    Buffer.read_int_run selvec 0 ~count:!count tids_arr;
    (match group_state with
    | Some (keys, aggs, table) ->
        Prof.phase_at p.group_path "accumulate" (fun () ->
            let agg_arr = Array.of_list aggs in
            for i = 0 to !count - 1 do
              let tid = tids_arr.(i) in
              let key = List.map (fun (e, _) -> eval_at tid e) keys in
              let inputs =
                Array.map
                  (fun (a : Aggregate.t) ->
                    match a.Aggregate.expr with
                    | Some e -> eval_at tid e
                    | None -> Value.Null)
                  agg_arr
              in
              Runtime.Agg_table.update table ~key ~inputs
            done)
    | None ->
        let sink_path, sink_label =
          match p.projection with
          | Some _ -> (p.projection_path, "project")
          | None -> (p.scan_path, p.scan_label)
        in
        wrap sink_path sink_label (fun () ->
            let arity = Schema.arity (Relation.schema rel) in
            for i = 0 to !count - 1 do
              let tid = tids_arr.(i) in
              match p.projection with
              | Some exprs ->
                  emit
                    (Array.of_list
                       (List.map (fun (e, _) -> eval_at tid e) exprs))
              | None -> emit (Array.init arity (fun c -> eval_at tid (Expr.Col c)))
            done));
    chunk_start := !chunk_start + vector_size
  done;
  (* group output + projection over it *)
  (match group_state with
  | Some (keys, _, table) ->
      Prof.phase_at p.group_path "emit" (fun () ->
          let n_keys = List.length keys in
          Runtime.Agg_table.emit table (fun key finished ->
              let base = Array.append (Array.of_list key) finished in
              match p.projection with
              | Some exprs ->
                  emit
                    (Array.of_list
                       (List.map
                          (fun (e, _) ->
                            charge ctx Cpu_model.bulk_per_value;
                            Expr.eval e ~params:ctx.params (fun c ->
                                if c < n_keys + Array.length finished then
                                  base.(c)
                                else Value.Null))
                          exprs))
              | None -> emit base))
  | None -> ());
  let out = List.rev !rows in
  let out =
    match p.sort with
    | Some keys ->
        wrap p.sort_path "sort" (fun () ->
            Runtime.sort_rows ?hier:ctx.hier ctx.arena ~row_width:32 ~keys out)
    | None -> out
  in
  match p.limit with
  | Some k ->
      wrap p.limit_path "limit" (fun () ->
          List.filteri (fun i _ -> i < k) out)
  | None -> out

let run cat plan ~params =
  match extract plan with
  | None -> Bulk.run cat plan ~params
  | Some pipeline ->
      let ctx =
        { cat; params; hier = Catalog.hier cat; arena = Catalog.arena cat }
      in
      let schema = Physical.schema cat plan in
      let columns = Array.map (fun (a : Schema.attr) -> a.Schema.name) schema in
      let rows = run_pipeline ctx pipeline in
      { Runtime.columns; rows }
