module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Aggregate = Relalg.Aggregate

type ctx = {
  cat : Catalog.t;
  params : Value.t array;
  hier : Memsim.Hierarchy.t option;
  arena : Storage.Arena.t;
}

type iter = unit -> Value.t array option

let charge ctx n = Runtime.charge ctx.hier n

(* Every next() call pays the virtual-call overhead. *)
let call ctx = charge ctx Cpu_model.volcano_next_call

let eval ctx e tuple =
  charge ctx Cpu_model.volcano_per_value;
  Expr.eval e ~params:ctx.params (fun i -> tuple.(i))

let rec open_iter ctx path (plan : Physical.t) : iter =
  let it = open_raw ctx path plan in
  (* construction-time gate: without a profiling session the iterator is
     returned unwrapped, so the disabled path is the seed code path *)
  if Prof.on () then fun () -> Prof.op path plan it else it

and open_raw ctx path (plan : Physical.t) : iter =
  match plan with
  | Physical.Scan { table; access; post; _ } ->
      let rel = Catalog.find ctx.cat table in
      let produce =
        match Dml.index_tids ctx.cat ctx.params table access with
        | None ->
            let tid = ref (-1) in
            let n = Relation.nrows rel in
            fun () ->
              incr tid;
              if !tid < n then Some !tid else None
        | Some tids ->
            let tids = ref tids in
            fun () ->
              (match !tids with
              | [] -> None
              | t :: rest ->
                  tids := rest;
                  Some t)
      in
      let next_match () =
        let rec loop () =
          call ctx;
          match produce () with
          | None -> None
          | Some tid ->
              (* generic scan: materializes the full tuple *)
              let tuple = Relation.get_tuple rel tid in
              charge ctx (Cpu_model.volcano_per_value * Array.length tuple);
              (match post with
              | None -> Some tuple
              | Some pred ->
                  if Expr.truthy (eval ctx pred tuple) then Some tuple
                  else loop ())
        in
        loop ()
      in
      next_match
  | Physical.Select { child; pred; _ } ->
      let src = open_iter ctx (Prof.child path 0) child in
      let rec next () =
        call ctx;
        match src () with
        | None -> None
        | Some tuple ->
            if Expr.truthy (eval ctx pred tuple) then Some tuple else next ()
      in
      next
  | Physical.Project { child; exprs } ->
      let src = open_iter ctx (Prof.child path 0) child in
      let exprs = Array.of_list (List.map fst exprs) in
      fun () ->
        call ctx;
        (match src () with
        | None -> None
        | Some tuple -> Some (Array.map (fun e -> eval ctx e tuple) exprs))
  | Physical.Hash_join { build; probe; build_keys; probe_keys; _ } ->
      let entry_width = 64 in
      let ht = Runtime.Sim_hash.create ?hier:ctx.hier ctx.arena ~entry_width () in
      let build_iter = open_iter ctx (Prof.child path 0) build in
      let built = ref false in
      let ensure_built () =
        if not !built then begin
          let rec drain () =
            match build_iter () with
            | None -> ()
            | Some tuple ->
                let key = List.map (fun i -> tuple.(i)) build_keys in
                Runtime.Sim_hash.add ht ~key tuple;
                drain ()
          in
          Prof.phase "build" drain;
          built := true
        end
      in
      let probe_iter = open_iter ctx (Prof.child path 1) probe in
      let pending = ref [] in
      let rec next () =
        call ctx;
        ensure_built ();
        match !pending with
        | out :: rest ->
            pending := rest;
            Some out
        | [] -> (
            match probe_iter () with
            | None -> None
            | Some tuple ->
                let key = List.map (fun i -> tuple.(i)) probe_keys in
                let matches = ref [] in
                Runtime.Sim_hash.iter_matches ht ~key (fun b ->
                    matches := Array.append b tuple :: !matches);
                pending := List.rev !matches;
                next ())
      in
      next
  | Physical.Group_by { child; keys; aggs; _ } ->
      let src = open_iter ctx (Prof.child path 0) child in
      let table =
        Runtime.Agg_table.create ?hier:ctx.hier ctx.arena ~aggs
          ~global:(keys = []) ~key_width:16 ()
      in
      let results = ref None in
      let compute () =
        let rec drain () =
          match src () with
          | None -> ()
          | Some tuple ->
              let key = List.map (fun (e, _) -> eval ctx e tuple) keys in
              let inputs =
                Array.of_list
                  (List.map
                     (fun (a : Aggregate.t) ->
                       match a.Aggregate.expr with
                       | Some e -> eval ctx e tuple
                       | None -> Value.Null)
                     aggs)
              in
              Runtime.Agg_table.update table ~key ~inputs;
              drain ()
        in
        Prof.phase "accumulate" drain;
        let out = ref [] in
        Prof.phase "emit" (fun () ->
            Runtime.Agg_table.emit table (fun key finished ->
                out := Array.append (Array.of_list key) finished :: !out));
        List.rev !out
      in
      fun () ->
        call ctx;
        let rows =
          match !results with
          | Some r -> r
          | None ->
              let r = ref (compute ()) in
              results := Some !r;
              !r
        in
        (match rows with
        | [] ->
            results := Some [];
            None
        | r :: rest ->
            results := Some rest;
            Some r)
  | Physical.Sort { child; keys } ->
      let src = open_iter ctx (Prof.child path 0) child in
      let buffered = ref None in
      fun () ->
        call ctx;
        let rows =
          match !buffered with
          | Some r -> r
          | None ->
              let acc = ref [] in
              let rec drain () =
                match src () with
                | None -> ()
                | Some t ->
                    acc := t :: !acc;
                    drain ()
              in
              drain ();
              let sorted =
                Prof.phase "sort" (fun () ->
                    Runtime.sort_rows ?hier:ctx.hier ctx.arena ~row_width:32
                      ~keys (List.rev !acc))
              in
              sorted
        in
        (match rows with
        | [] ->
            buffered := Some [];
            None
        | r :: rest ->
            buffered := Some rest;
            Some r)
  | Physical.Limit { child; n } ->
      let src = open_iter ctx (Prof.child path 0) child in
      let seen = ref 0 in
      fun () ->
        call ctx;
        if !seen >= n then None
        else begin
          match src () with
          | None -> None
          | Some t ->
              incr seen;
              Some t
        end
  | Physical.Update { table; access; post; assignments; _ } ->
      let done_ = ref false in
      (fun () ->
        call ctx;
        if !done_ then None
        else begin
          done_ := true;
          Dml.update ~per_value:Cpu_model.volcano_per_value
            ~call_cost:Cpu_model.volcano_next_call ctx.cat ~params:ctx.params
            ~table ~access ~post ~assignments;
          None
        end)
  | Physical.Insert { table; values } ->
      let done_ = ref false in
      fun () ->
        call ctx;
        if !done_ then None
        else begin
          done_ := true;
          Dml.insert ~per_value:Cpu_model.volcano_per_value ctx.cat
            ~params:ctx.params ~table ~values;
          None
        end

let run cat plan ~params =
  let ctx = { cat; params; hier = Catalog.hier cat; arena = Catalog.arena cat } in
  let schema = Physical.schema cat plan in
  let columns =
    Array.map (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name) schema
  in
  (* the top operator is span "0", child of the session's query root "" *)
  let it = open_iter ctx (Prof.child Prof.root 0) plan in
  let rows = ref [] in
  let rec drain () =
    match it () with
    | None -> ()
    | Some t ->
        rows := t :: !rows;
        drain ()
  in
  drain ();
  { Runtime.columns; rows = List.rev !rows }
