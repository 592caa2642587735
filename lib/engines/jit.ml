module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate
module Sim_hash = Runtime.Sim_hash
module Agg_table = Runtime.Agg_table

(* A column of the row in flight, read while its operator holds the row:
   [read] is an [Expr.Int] slot for an int never NULL (read unboxed, boxed
   only where it leaves the typed slots), an [Expr.Value] slot otherwise.
   [touch] makes the traced accesses and charges of a read without the
   value, for a column read only for its trace; any column can be touched,
   but only columns in the operator's [need] can be read. *)
type col = { read : Expr.compiled; touch : unit -> unit }

let col read =
  let touch =
    match read with
    | Expr.Int (f, _) -> fun () -> ignore (f ())
    | Expr.Bool f -> fun () -> ignore (f ())
    | Expr.Value f -> fun () -> ignore (f ())
  in
  { read; touch }

(* A column with no side effects to replay. *)
let quiet read = { read; touch = ignore }

(* A group-by whose keys come from the build side of the hash join below it
   (seen through Selects) caches its group index in each build entry, as
   the C emitter's groupjoin does: [gids.(e)] is entry [e]'s group or -1,
   and [matched] the join's current entry. *)
type groupjoin = { mutable gids : int array; mutable matched : int ref }

type ctx = {
  cat : Catalog.t;
  params : Value.t array;
  hier : Memsim.Hierarchy.t option;
  arena : Storage.Arena.t;
  charge : int -> unit;
}

(* The number of columns of an operator's output. *)
let arity ctx plan = Array.length (Physical.schema ctx.cat plan)

(* Host room for a plan's estimated rows, at most 2^17: a larger table
   grows as it fills. *)
let estimate ctx plan =
  let c = Physical.cardinality ctx.cat plan in
  if c >= 1.0 then int_of_float (Float.min c (float_of_int (1 lsl 17))) else 0

let compile_expr ctx cols e =
  Expr.compile e ~params:ctx.params (fun i -> cols.(i).read)

let with_cols need cols =
  let need = Array.copy need in
  List.iter (fun c -> need.(c) <- true) cols;
  need

let rec build_side ctx (plan : Physical.t) cols =
  match plan with
  | Physical.Select { child; _ } -> build_side ctx child cols
  | Physical.Hash_join { build; _ } ->
      let ba = arity ctx build in
      List.for_all (fun c -> c < ba) cols
  | _ -> false

let widen a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* compile: returns a thunk that drives the pipeline(s).  Each operator
   hands [consume] its output columns once, at compile time, and calls the
   row function it gets back once per row.  [need.(i)] says whether an
   operator above reads output column [i]. *)
let rec compile ?gj ctx path (plan : Physical.t) ~(need : bool array)
    ~(consume : col array -> unit -> unit) : unit -> unit =
  match plan with
  | Physical.Scan { table; access; post; _ } ->
      let rel = Catalog.find ctx.cat table in
      let schema = Relation.schema rel in
      let n_attrs = Storage.Schema.arity schema in
      (* lazy per-tuple column cache: each stored column is read at most once
         per tuple, on first use, through its unboxed int reader or its value
         reader; [gen.(c)] is the tuple it holds, or [-2 - tid] once a touch
         has traced it for [tid] without reading it *)
      let cur_tid = ref (-1) in
      let gen = Array.make n_attrs (-1) in
      let ints = Array.make n_attrs 0 in
      let vals = Array.make n_attrs Value.Null in
      let charge = ctx.charge in
      let column c =
        if Relation.int_run_readable rel c then begin
          let read = Relation.int_reader rel c in
          let get () =
            let tid = !cur_tid in
            if Array.unsafe_get gen c = tid then Array.unsafe_get ints c
            else begin
              charge Cpu_model.jit_per_value;
              let v = read tid in
              Array.unsafe_set ints c v;
              Array.unsafe_set gen c tid;
              v
            end
          in
          col
            (Expr.Int
               (get, (Storage.Schema.attr schema c).Storage.Schema.ty = Value.Date))
        end
        else begin
          let read = Relation.value_reader rel c in
          let trace = Relation.touch_reader rel c in
          let get () =
            let tid = !cur_tid in
            let g = Array.unsafe_get gen c in
            if g = tid then Array.unsafe_get vals c
            else begin
              let v =
                if g = -2 - tid then
                  Memsim.Hierarchy.untraced ctx.hier (fun () -> read tid)
                else begin
                  charge Cpu_model.jit_per_value;
                  read tid
                end
              in
              Array.unsafe_set vals c v;
              Array.unsafe_set gen c tid;
              v
            end
          in
          let touch () =
            let tid = !cur_tid in
            let g = Array.unsafe_get gen c in
            if g <> tid && g <> -2 - tid then begin
              charge Cpu_model.jit_per_value;
              trace tid;
              Array.unsafe_set gen c (-2 - tid)
            end
          in
          { read = Expr.Value get; touch }
        end
      in
      let cols = Array.init n_attrs column in
      let k = consume cols in
      let visit =
        match post with
        | None ->
            fun tid ->
              cur_tid := tid;
              k ()
        | Some pred ->
            let p = Expr.truth (compile_expr ctx cols pred) in
            fun tid ->
              cur_tid := tid;
              charge Cpu_model.jit_per_value;
              if p () then k ()
      in
      (* Blocked fast path for the hottest shape: full scan with one pushed
         comparison on a plain non-nullable int column against a column-free
         operand.  Reads the predicate column in 1024-tuple runs (one traced
         run per block, unboxed ints) and evaluates the comparison without
         boxing.  Charges are identical to the generic path — per tuple one
         predicate charge plus one first-use charge for the predicate column
         — and survivors pre-populate the lazy column cache exactly as the
         generic path leaves it, so downstream consumers behave the same.
         Multi-conjunct predicates keep the generic short-circuit path: its
         access volume depends on where each conjunct fails. *)
      let fast_scan =
        match (access, post) with
        | Physical.Full_scan, Some conj -> (
            match Runtime.simple_int_cmp ~params:ctx.params rel conj with
            | Some (c, test) ->
                let block = 1024 in
                (* shared across executions: a prepared pipeline re-runs
                   this thunk per morsel and must not allocate per run *)
                let block_vals = Array.make block 0 in
                Some
                  (fun () ->
                    let n = Relation.nrows rel in
                    let lo = ref 0 in
                    while !lo < n do
                      let m = min block (n - !lo) in
                      Relation.read_int_run rel ~lo:!lo ~count:m c block_vals;
                      charge (2 * Cpu_model.jit_per_value * m);
                      for i = 0 to m - 1 do
                        let v = Array.unsafe_get block_vals i in
                        if test v then begin
                          let tid = !lo + i in
                          cur_tid := tid;
                          ints.(c) <- v;
                          gen.(c) <- tid;
                          k ()
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
                                  vals.(c) <- value;
                                  gen.(c) <- tid
                              | None -> ());
                              k ()
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
      compile ?gj ctx (Prof.child path 0) child
        ~need:(with_cols need (Expr.cols pred))
        ~consume:(fun cols ->
          let p = Expr.truth (compile_expr ctx cols pred) in
          let k = consume cols in
          Prof.consume path plan (fun () ->
              ctx.charge Cpu_model.jit_per_value;
              if p () then k ()))
  | Physical.Project { child; exprs } ->
      (* a touched output column evaluates its expression, so every column
         an expression reads is needed *)
      let need =
        with_cols
          (Array.make (arity ctx child) false)
          (List.concat_map (fun (e, _) -> Expr.cols e) exprs)
      in
      compile ctx (Prof.child path 0) child ~need ~consume:(fun cols ->
          let charge = ctx.charge in
          (* the projection keeps no value: each read charges and
             evaluates *)
          let out =
            Array.of_list
              (List.map
                 (fun (e, _) ->
                   col
                     (match compile_expr ctx cols e with
                     | Expr.Int (f, date) ->
                         Expr.Int
                           ( (fun () ->
                               charge Cpu_model.jit_per_value;
                               f ()),
                             date )
                     | Expr.Bool f ->
                         Expr.Bool
                           (fun () ->
                             charge Cpu_model.jit_per_value;
                             f ())
                     | Expr.Value f ->
                         Expr.Value
                           (fun () ->
                             charge Cpu_model.jit_per_value;
                             f ())))
                 exprs)
          in
          Prof.consume path plan (consume out))
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      compile_join ?gj ctx path ~need ~build ~probe ~build_keys ~probe_keys
        ~consume
  | Physical.Group_by { child; keys; aggs; _ } ->
      compile_group ctx path plan ~child ~keys ~aggs ~consume
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
          ~need:(Array.make out_arity true) ~consume:(fun cols ->
            let reads = Array.map (fun c -> Expr.boxed c.read) cols in
            Prof.consume_phase path "buffer" (fun () ->
                rows := Array.map (fun f -> f ()) reads :: !rows))
      in
      let cur = ref [||] in
      let k =
        consume
          (Array.init out_arity (fun i ->
               quiet (Expr.Value (fun () -> !cur.(i)))))
      in
      fun () ->
        rows := [];
        run_child ();
        let sorted =
          Prof.phase_at path "sort" (fun () ->
              Runtime.sort_rows ?hier:ctx.hier ctx.arena
                ~row_width:(max 8 row_width) ~keys (List.rev !rows))
        in
        List.iter
          (fun r ->
            cur := r;
            k ())
          sorted
  | Physical.Limit { child; n } ->
      let seen = ref 0 in
      let exec =
        compile ctx (Prof.child path 0) child ~need ~consume:(fun cols ->
            let k = consume cols in
            Prof.consume path plan (fun () ->
                if !seen < n then begin
                  incr seen;
                  k ()
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

(* The build pipeline reads each row's key, then every build column in
   order, then adds an entry to the hash table; the probe pipeline reads
   each row's key and emits the row once per matching entry, oldest first.
   An entry keeps only the build columns read above the join, ints unboxed,
   in flat arrays at its index; the other columns are touched where they
   used to be read.  A key of one int column on both sides hashes and
   matches as the int itself. *)
and compile_join ?gj ctx path ~need ~build ~probe ~build_keys ~probe_keys
    ~consume =
  let build_arity = arity ctx build in
  let probe_arity = arity ctx probe in
  let build_schema = Physical.schema ctx.cat build in
  let entry_width =
    8 (* next pointer *)
    + Array.fold_left
        (fun acc (a : Storage.Schema.attr) -> acc + Storage.Schema.stored_width a)
        0 build_schema
  in
  let rows = estimate ctx build in
  let ht =
    Sim_hash.create ?hier:ctx.hier ~capacity:rows ctx.arena ~entry_width ()
  in
  let keep = Array.sub need 0 build_arity in
  (* the kept columns of entry [e]: [ints.(e * ni + j)], [vals.(e * nv + j)] *)
  let ni = ref 0 and nv = ref 0 in
  let ints = ref [||] and vals = ref [||] in
  let entry = ref 0 in
  let bcols = ref [||] in
  let build_row = ref ignore in
  let run_build =
    compile ctx (Prof.child path 0) build
      ~need:(with_cols keep build_keys)
      ~consume:(fun cols ->
        bcols := cols;
        Prof.consume_phase path "build" (fun () -> !build_row ()))
  in
  let bcols = !bcols in
  let slot = Array.make build_arity (-1) in
  Array.iteri
    (fun i c ->
      if keep.(i) then
        match c.read with
        | Expr.Int _ ->
            slot.(i) <- !ni;
            incr ni
        | _ ->
            slot.(i) <- !nv;
            incr nv)
    bcols;
  let ni = !ni and nv = !nv in
  ints := Array.make (ni * rows) 0;
  vals := Array.make (nv * rows) Value.Null;
  let store =
    Array.mapi
      (fun i c ->
        if not keep.(i) then c.touch
        else
          let j = slot.(i) in
          match c.read with
          | Expr.Int (f, _) -> fun () -> !ints.((!entry * ni) + j) <- f ()
          | r ->
              let f = Expr.boxed r in
              fun () -> !vals.((!entry * nv) + j) <- f ())
      bcols
  in
  let room e =
    if (e + 1) * ni > Array.length !ints then
      ints := widen !ints (2 * (e + 1) * ni) 0;
    if (e + 1) * nv > Array.length !vals then
      vals := widen !vals (2 * (e + 1) * nv) Value.Null;
    match gj with
    | Some gj ->
        if e >= Array.length gj.gids then
          gj.gids <- widen gj.gids (2 * (e + 1)) (-1);
        gj.gids.(e) <- -1
    | None -> ()
  in
  let payload e =
    room e;
    entry := e;
    for i = 0 to build_arity - 1 do
      (Array.unsafe_get store i) ()
    done
  in
  let matched = ref 0 in
  Option.iter (fun gj -> gj.matched <- matched) gj;
  let build_out =
    Array.init build_arity (fun i ->
        if not keep.(i) then
          quiet
            (Expr.Value
               (fun () ->
                 invalid_arg "Jit: a build column read above its join was not kept"))
        else
          let j = slot.(i) in
          match bcols.(i).read with
          | Expr.Int (_, date) ->
              quiet (Expr.Int ((fun () -> !ints.((!matched * ni) + j)), date))
          | _ -> quiet (Expr.Value (fun () -> !vals.((!matched * nv) + j))))
  in
  let run_probe =
    compile ctx (Prof.child path 1) probe
      ~need:(with_cols (Array.sub need build_arity probe_arity) probe_keys)
      ~consume:(fun pcols ->
        let k = consume (Array.append build_out pcols) in
        let on_match e =
          matched := e;
          k ()
        in
        let int_key =
          match (build_keys, probe_keys) with
          | [ b ], [ p ] -> (
              match (bcols.(b).read, pcols.(p).read) with
              | Expr.Int (bkey, _), Expr.Int (pkey, _) -> Some (bkey, pkey)
              | _ -> None)
          | _ -> None
        in
        let probe_row =
          match int_key with
          | Some (bkey, pkey) ->
              (build_row :=
                 fun () ->
                   let key = bkey () in
                   let e = Sim_hash.length ht in
                   payload e;
                   Sim_hash.add_int ht key e);
              fun () -> Sim_hash.iter_matches_int ht (pkey ()) on_match
          | None ->
              let bkeys =
                List.map (fun i -> Expr.boxed bcols.(i).read) build_keys
              in
              let pkeys =
                List.map (fun i -> Expr.boxed pcols.(i).read) probe_keys
              in
              (build_row :=
                 fun () ->
                   let key = List.map (fun f -> f ()) bkeys in
                   let e = Sim_hash.length ht in
                   payload e;
                   Sim_hash.add ht ~key e);
              fun () ->
                Sim_hash.iter_matches ht
                  ~key:(List.map (fun f -> f ()) pkeys)
                  on_match
        in
        Prof.consume_phase path "probe" probe_row)
  in
  fun () ->
    Sim_hash.clear ht;
    run_build ();
    run_probe ()

(* Per row: the keys, then each aggregate's input, then the group lookup,
   then the steps.  One int key looks its group up unboxed; a groupjoin
   entry that knows its group skips the keys and the host lookup, with the
   same traffic. *)
and compile_group ctx path plan ~child ~keys ~aggs ~consume =
  let child_schema = Physical.schema ctx.cat child in
  let key_cols =
    List.concat_map (fun (e, _) -> Expr.cols e) keys |> List.sort_uniq compare
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
    Agg_table.create ?hier:ctx.hier ~capacity:(estimate ctx plan) ctx.arena
      ~aggs ~global:(keys = [])
      ~key_width:(max 8 key_width) ()
  in
  let gj =
    if keys <> [] && build_side ctx child key_cols then
      Some { gids = [||]; matched = ref 0 }
    else None
  in
  let need =
    with_cols
      (Array.make (arity ctx child) false)
      (key_cols
      @ List.concat_map
          (fun (a : Aggregate.t) ->
            match a.Aggregate.expr with Some e -> Expr.cols e | None -> [])
          aggs)
  in
  let n_keys = List.length keys and n_aggs = List.length aggs in
  let per_row_charge = Cpu_model.jit_per_value * (1 + n_aggs) in
  let emit = ref ignore in
  let run_child =
    compile ?gj ctx (Prof.child path 0) child ~need ~consume:(fun cols ->
        let key_c = List.map (fun (e, _) -> compile_expr ctx cols e) keys in
        (* each aggregate's input is evaluated before the lookup into a
           typed or a boxed slot, and stepped after it *)
        let ints = Array.make n_aggs 0 and vals = Array.make n_aggs Value.Null in
        let evals, steps =
          List.split
            (List.mapi
               (fun j (a : Aggregate.t) ->
                 match Option.map (compile_expr ctx cols) a.Aggregate.expr with
                 | Some (Expr.Int (f, date)) ->
                     ( (fun () -> ints.(j) <- f ()),
                       fun st -> Aggregate.step_int st.(j) ~date ints.(j) )
                 | Some c ->
                     let f = Expr.boxed c in
                     ( (fun () -> vals.(j) <- f ()),
                       fun st -> Aggregate.step st.(j) vals.(j) )
                 | None -> (ignore, fun st -> Aggregate.step st.(j) Value.Null))
               aggs)
        in
        let evals = Array.of_list evals and steps = Array.of_list steps in
        let inputs () =
          for j = 0 to n_aggs - 1 do
            (Array.unsafe_get evals j) ()
          done
        in
        let cur_fin = ref [||] in
        let agg_out =
          List.init n_aggs (fun j -> quiet (Expr.Value (fun () -> !cur_fin.(j))))
        in
        let find =
          match key_c with
          | [ Expr.Int (f, date) ] ->
              let cur_key = ref 0 in
              let k =
                consume
                  (Array.of_list
                     (quiet (Expr.Int ((fun () -> !cur_key), date)) :: agg_out))
              in
              (emit :=
                 fun () ->
                   Agg_table.emit_int table (fun key fin ->
                       cur_key := key;
                       cur_fin := fin;
                       k ()));
              fun () ->
                let key = f () in
                inputs ();
                Agg_table.group_int table key
          | _ ->
              let fs = List.map Expr.boxed key_c in
              let cur_key = ref [||] in
              let key_out =
                List.init n_keys (fun i ->
                    quiet
                      (Expr.Value
                         (fun () ->
                           if Array.length !cur_key = 0 then Value.Null
                           else !cur_key.(i))))
              in
              let k = consume (Array.of_list (key_out @ agg_out)) in
              (emit :=
                 fun () ->
                   Agg_table.emit table (fun key fin ->
                       cur_key := Array.of_list key;
                       cur_fin := fin;
                       k ()));
              fun () ->
                let key = List.map (fun f -> f ()) fs in
                inputs ();
                Agg_table.group table ~key
        in
        let find =
          match gj with
          | None -> find
          | Some gj ->
              fun () ->
                let e = !(gj.matched) in
                let g = gj.gids.(e) in
                if g >= 0 then begin
                  inputs ();
                  Agg_table.regroup table g;
                  g
                end
                else begin
                  let g = find () in
                  gj.gids.(e) <- g;
                  g
                end
        in
        Prof.consume_phase path "accumulate" (fun () ->
            ctx.charge per_row_charge;
            let st = Agg_table.states table (find ()) in
            for j = 0 to n_aggs - 1 do
              (Array.unsafe_get steps j) st
            done))
  in
  fun () ->
    Agg_table.clear table;
    run_child ();
    Prof.phase_at path "emit" (fun () -> !emit ())

let prepare cat plan ~params =
  let hier = Catalog.hier cat in
  let charge =
    match hier with Some h -> Memsim.Hierarchy.add_cpu h | None -> ignore
  in
  let ctx = { cat; params; hier; arena = Catalog.arena cat; charge } in
  let schema = Physical.schema cat plan in
  let columns =
    Array.map (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name) schema
  in
  let out_arity = Array.length schema in
  let rows = ref [] in
  let execute =
    compile ctx (Prof.child Prof.root 0) plan
      ~need:(Array.make out_arity true) ~consume:(fun cols ->
        if out_arity = 0 then ignore
        else
          let reads = Array.map (fun c -> Expr.boxed c.read) cols in
          fun () -> rows := Array.map (fun f -> f ()) reads :: !rows)
  in
  fun () ->
    rows := [];
    execute ();
    { Runtime.columns; rows = List.rev !rows }

let run cat plan ~params = prepare cat plan ~params ()
