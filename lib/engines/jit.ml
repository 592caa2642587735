module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

(* A row in flight is a lazy accessor from column position to value. *)
type row = int -> Value.t

type ctx = {
  cat : Catalog.t;
  params : Value.t array;
  hier : Memsim.Hierarchy.t option;
  arena : Storage.Arena.t;
}

let charge ctx n = Runtime.charge ctx.hier n

(* The number of columns of an operator's output. *)
let arity ctx plan = Array.length (Physical.schema ctx.cat plan)

(* compile: returns a thunk that drives the pipeline(s), pushing rows into
   [consume]. *)
let rec compile ctx path (plan : Physical.t) ~(consume : row -> unit) :
    unit -> unit =
  match plan with
  | Physical.Scan { table; access; post; _ } ->
      let rel = Catalog.find ctx.cat table in
      let n_attrs = Storage.Schema.arity (Relation.schema rel) in
      (* lazy per-tuple column cache: each stored column is read at most once
         per tuple, on first use *)
      let cur_tid = ref (-1) in
      let cache = Array.make n_attrs Value.Null in
      let gen = Array.make n_attrs (-1) in
      let readers = Array.init n_attrs (Relation.value_reader rel) in
      let getcol i =
        if gen.(i) = !cur_tid then cache.(i)
        else begin
          charge ctx Cpu_model.jit_per_value;
          let v = readers.(i) !cur_tid in
          cache.(i) <- v;
          gen.(i) <- !cur_tid;
          v
        end
      in
      let pass =
        match post with
        | None -> fun () -> true
        | Some pred ->
            let p = Expr.specialize pred ~params:ctx.params getcol in
            fun () ->
              charge ctx Cpu_model.jit_per_value;
              Expr.truthy (p ())
      in
      let visit tid =
        cur_tid := tid;
        if pass () then consume getcol
      in
      (* Blocked fast path for the hottest shape: full scan with one pushed
         comparison on a plain non-nullable int column against a column-free
         operand.  Reads the predicate column in 1024-tuple runs (one traced
         run per block, unboxed ints) and evaluates the comparison without
         boxing.  Charges are identical to the generic path — per tuple one
         [pass] charge plus one first-use [getcol] charge for the predicate
         column — and survivors pre-populate the lazy column cache exactly as
         the generic path leaves it, so downstream consumers behave the same.
         Multi-conjunct predicates keep the generic short-circuit path: its
         access volume depends on where each conjunct fails. *)
      let fast_scan =
        match (access, post) with
        | Physical.Full_scan, Some conj -> (
            match Runtime.simple_int_cmp ~params:ctx.params rel conj with
            | Some (c, test) ->
                let box =
                  match
                    (Storage.Schema.attr (Relation.schema rel) c).Storage.Schema
                      .ty
                  with
                  | Value.Date -> fun v -> Value.VDate v
                  | _ -> fun v -> Value.VInt v
                in
                let block = 1024 in
                (* shared across executions: a prepared pipeline re-runs
                   this thunk per morsel and must not allocate per run *)
                let vals = Array.make block 0 in
                Some
                  (fun () ->
                    let n = Relation.nrows rel in
                    let lo = ref 0 in
                    while !lo < n do
                      let m = min block (n - !lo) in
                      Relation.read_int_run rel ~lo:!lo ~count:m c vals;
                      charge ctx (2 * Cpu_model.jit_per_value * m);
                      for i = 0 to m - 1 do
                        let v = Array.unsafe_get vals i in
                        if test v then begin
                          let tid = !lo + i in
                          cur_tid := tid;
                          cache.(c) <- box v;
                          gen.(c) <- tid;
                          consume getcol
                        end
                      done;
                      lo := !lo + m
                    done)
            | None -> (
                (* single-column predicate over a compressed column: evaluate
                   it on the compressed representation and visit surviving
                   tid ranges; a known run value pre-populates the lazy
                   column cache exactly as the generic path would leave it *)
                match
                  Runtime.compressed_filter_range ?hier:ctx.hier
                    ~params:ctx.params ~per_value:Cpu_model.jit_per_value rel
                    conj
                with
                | Some (c, scan) ->
                    Some
                      (fun () ->
                        scan (fun ~lo ~len v ->
                            for tid = lo to lo + len - 1 do
                              cur_tid := tid;
                              (match v with
                              | Some value ->
                                  cache.(c) <- value;
                                  gen.(c) <- tid
                              | None -> ());
                              consume getcol
                            done))
                | None -> None))
        | _ -> None
      in
      Prof.thunk path plan (fun () ->
          (* a prepared pipeline re-runs this thunk per morsel over a
             resliced view: tids restart at 0, so the lazy column cache
             must forget the previous morsel's entries *)
          cur_tid := -1;
          Array.fill gen 0 n_attrs (-1);
          match fast_scan with
          | Some fast -> fast ()
          | None -> (
              match Dml.index_tids ctx.cat ctx.params table access with
              | Some tids -> List.iter visit tids
              | None ->
                  let n = Relation.nrows rel in
                  for tid = 0 to n - 1 do
                    visit tid
                  done))
  | Physical.Select { child; pred; _ } ->
      let cur_row = ref (fun (_ : int) -> Value.Null) in
      let p = Expr.specialize pred ~params:ctx.params (fun i -> !cur_row i) in
      compile ctx (Prof.child path 0) child
        ~consume:
          (Prof.consume path plan (fun row ->
               cur_row := row;
               charge ctx Cpu_model.jit_per_value;
               if Expr.truthy (p ()) then consume row))
  | Physical.Project { child; exprs } ->
      let cur_row = ref (fun (_ : int) -> Value.Null) in
      let compiled =
        Array.of_list
          (List.map
             (fun (e, _) ->
               Expr.specialize e ~params:ctx.params (fun i -> !cur_row i))
             exprs)
      in
      compile ctx (Prof.child path 0) child
        ~consume:
          (Prof.consume path plan (fun row ->
               cur_row := row;
               let out i =
                 charge ctx Cpu_model.jit_per_value;
                 compiled.(i) ()
               in
               consume out))
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      let build_arity = arity ctx build in
      let build_schema = Physical.schema ctx.cat build in
      let entry_width =
        8 (* next pointer *)
        + Array.fold_left
            (fun acc (a : Storage.Schema.attr) ->
              acc + Storage.Schema.stored_width a)
            0 build_schema
      in
      let ht =
        Runtime.Sim_hash.create ?hier:ctx.hier ctx.arena ~entry_width ()
      in
      (* build pipeline: materialize the build row into the hash table *)
      let run_build =
        compile ctx (Prof.child path 0) build
          ~consume:
            (Prof.consume_phase path "build" (fun row ->
                 let key = List.map row build_keys in
                 let payload = Array.init build_arity row in
                 Runtime.Sim_hash.add ht ~key payload))
      in
      (* one output row and one match callback for the whole probe: a
         consumer reads the row before it returns *)
      let probe_row = ref (fun (_ : int) -> Value.Null) in
      let matched = ref [||] in
      let out i =
        if i < build_arity then !matched.(i) else !probe_row (i - build_arity)
      in
      let on_match payload =
        matched := payload;
        consume out
      in
      let run_probe =
        compile ctx (Prof.child path 1) probe
          ~consume:
            (Prof.consume_phase path "probe" (fun row ->
                 probe_row := row;
                 let key = List.map row probe_keys in
                 Runtime.Sim_hash.iter_matches ht ~key on_match))
      in
      fun () ->
        Runtime.Sim_hash.clear ht;
        run_build ();
        run_probe ()
  | Physical.Group_by { child; keys; aggs; _ } ->
      let child_schema = Physical.schema ctx.cat child in
      let cur_row = ref (fun (_ : int) -> Value.Null) in
      let key_fns =
        List.map
          (fun (e, _) ->
            Expr.specialize e ~params:ctx.params (fun i -> !cur_row i))
          keys
      in
      let agg_fns =
        List.map
          (fun (a : Aggregate.t) ->
            match a.Aggregate.expr with
            | Some e -> Expr.specialize e ~params:ctx.params (fun i -> !cur_row i)
            | None -> fun () -> Value.Null)
          aggs
      in
      let key_cols =
        List.concat_map (fun (e, _) -> Expr.cols e) keys
        |> List.sort_uniq compare
      in
      let key_width =
        List.fold_left
          (fun acc c ->
            acc
            + Storage.Value.data_width child_schema.(c).Storage.Schema.ty
            + if child_schema.(c).Storage.Schema.nullable then 1 else 0)
          0 key_cols
      in
      let table =
        Runtime.Agg_table.create ?hier:ctx.hier ctx.arena ~aggs
          ~global:(keys = [])
          ~key_width:(max 8 key_width) ()
      in
      let agg_fn_arr = Array.of_list agg_fns in
      let per_row_charge = Cpu_model.jit_per_value * (1 + List.length aggs) in
      (* one input array for every row: the table steps its states from it
         and keeps none of it *)
      let inputs = Array.make (Array.length agg_fn_arr) Value.Null in
      let run_child =
        compile ctx (Prof.child path 0) child
          ~consume:
            (Prof.consume_phase path "accumulate" (fun row ->
                 cur_row := row;
                 charge ctx per_row_charge;
                 let key = List.map (fun f -> f ()) key_fns in
                 for i = 0 to Array.length agg_fn_arr - 1 do
                   inputs.(i) <- agg_fn_arr.(i) ()
                 done;
                 Runtime.Agg_table.update table ~key ~inputs))
      in
      let n_keys = List.length keys in
      fun () ->
        Runtime.Agg_table.clear table;
        run_child ();
        Prof.phase_at path "emit" (fun () ->
            Runtime.Agg_table.emit table (fun key finished ->
                let key_arr = Array.of_list key in
                let out i =
                  if i < n_keys then
                    if Array.length key_arr = 0 then Value.Null
                    else key_arr.(i)
                  else finished.(i - n_keys)
                in
                consume out))
  | Physical.Sort { child; keys } ->
      let out_arity = arity ctx child in
      let schema = Physical.schema ctx.cat child in
      let row_width =
        Array.fold_left
          (fun acc (a : Storage.Schema.attr) ->
            acc + Storage.Schema.stored_width a)
          0 schema
      in
      let rows = ref [] in
      let run_child =
        compile ctx (Prof.child path 0) child
          ~consume:
            (Prof.consume_phase path "buffer" (fun row ->
                 rows := Array.init out_arity row :: !rows))
      in
      fun () ->
        rows := [];
        run_child ();
        let sorted =
          Prof.phase_at path "sort" (fun () ->
              Runtime.sort_rows ?hier:ctx.hier ctx.arena
                ~row_width:(max 8 row_width) ~keys (List.rev !rows))
        in
        List.iter (fun r -> consume (fun i -> r.(i))) sorted
  | Physical.Limit { child; n } ->
      let seen = ref 0 in
      let exec =
        compile ctx (Prof.child path 0) child
          ~consume:
            (Prof.consume path plan (fun row ->
                 if !seen < n then begin
                   incr seen;
                   consume row
                 end))
      in
      fun () ->
        seen := 0;
        exec ()
  | Physical.Update { table; access; post; assignments; _ } ->
      Prof.thunk path plan (fun () ->
          Dml.update ~per_value:Cpu_model.jit_per_value ~call_cost:0 ctx.cat
            ~params:ctx.params ~table ~access ~post ~assignments)
  | Physical.Insert { table; values } ->
      Prof.thunk path plan (fun () ->
          Dml.insert ~per_value:Cpu_model.jit_per_value ctx.cat
            ~params:ctx.params ~table ~values)

let prepare cat plan ~params =
  let hier = Catalog.hier cat in
  let ctx = { cat; params; hier; arena = Catalog.arena cat } in
  let schema = Physical.schema cat plan in
  let columns =
    Array.map (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name) schema
  in
  let out_arity = Array.length schema in
  let rows = ref [] in
  let consume row =
    let materialized = Array.init (max out_arity 1) row in
    rows := (if out_arity = 0 then [||] else materialized) :: !rows
  in
  let consume = if out_arity = 0 then fun _ -> () else consume in
  let execute = compile ctx (Prof.child Prof.root 0) plan ~consume in
  fun () ->
    rows := [];
    execute ();
    { Runtime.columns; rows = List.rev !rows }

let run cat plan ~params = prepare cat plan ~params ()
