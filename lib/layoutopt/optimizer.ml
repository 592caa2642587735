module Emit = Costmodel.Emit
module Model = Costmodel.Model
module Layout = Storage.Layout
module Schema = Storage.Schema
module Compress = Storage.Compress
module Encoding = Storage.Encoding

type algorithm = Bpi of float | Ip

type table_result = {
  table : string;
  layout : Storage.Layout.t;
  encodings : (int * Encoding.t) list;
  cuts : Cut.t list;
  estimated_cost : float;
  row_cost : float;
  column_cost : float;
  search : Bpi.stats;
}

let tables cat workload =
  List.concat_map
    (fun (plan, _) -> List.map (fun d -> d.Emit.table) (snd (Emit.emit cat plan)))
    workload
  |> List.sort_uniq compare

let cuts_for_table ?(extended = true) ?estimate cat table workload =
  (* cuts are per query: each query's descriptors yield its own cut set *)
  let per_query =
    List.concat_map
      (fun (plan, _freq) ->
        let _, descs = Emit.emit ?estimate cat plan in
        let mine = List.filter (fun d -> String.equal d.Emit.table table) descs in
        if mine = [] then []
        else if extended then Cut.extended_of_descs mine
        else Cut.classic_of_descs mine)
      workload
  in
  List.sort_uniq compare per_query

let layout_of_partitioning schema partitioning =
  Layout.of_indices schema partitioning

let workload_cost_with ?estimate ?params ?additive ?(encodings = []) cat
    table layout workload =
  let encodings =
    if encodings = [] then [] else [ (table, encodings) ]
  in
  Model.workload_cost ?estimate ?params ?additive ~encodings
    ~layouts:[ (table, layout) ]
    cat workload

let optimize_table ?(algorithm = Bpi 0.005) ?(extended = true)
    ?(compress = false) ?estimate ?params ?additive cat table workload =
  let rel = Storage.Catalog.find cat table in
  let schema = Storage.Relation.schema rel in
  let n_attrs = Schema.arity schema in
  let cuts = cuts_for_table ~extended ?estimate cat table workload in
  let search_with encodings =
    let cost partitioning =
      workload_cost_with ?estimate ?params ?additive ~encodings cat table
        (layout_of_partitioning schema partitioning)
        workload
    in
    match algorithm with
    | Bpi threshold -> Bpi.optimize ~cost ~n_attrs ~cuts ~threshold
    | Ip ->
        (* exact IP frontier re-costed under the full (prefetch-aware,
           concurrently-composed) model, with a BPi run as the floor: the
           IP objective is separable per fragment, so the frontier is where
           the two models can disagree — taking the min keeps Ip never
           worse than Bpi on the model's own estimate *)
        let problem = Ip.problem_of_workload ?estimate ?params cat table workload in
        let frontier, ip_stats = Ip.solve problem in
        let bpi_p, bpi_c, bpi_stats =
          Bpi.optimize ~cost ~n_attrs ~cuts ~threshold:0.005
        in
        let best_p, best_c =
          List.fold_left
            (fun (bp, bc) (p, _ip_cost) ->
              let c = cost p in
              if c < bc then (p, c) else (bp, bc))
            (bpi_p, bpi_c) frontier
        in
        ( best_p,
          best_c,
          {
            Bpi.cost_evaluations =
              bpi_stats.Bpi.cost_evaluations + ip_stats.Ip.evaluations
              + List.length frontier;
            nodes_visited =
              bpi_stats.Bpi.nodes_visited + ip_stats.Ip.nodes_visited;
          } )
  in
  let plain_search = search_with [] in
  let partitioning, estimated_cost, search, encodings =
    if not compress then
      let p, c, s = plain_search in
      (p, c, s, [])
    else
      (* joint search: the advisor proposes per-column schemes, the same
         cut-constrained decomposition search runs under their predicted
         cost atoms, and the cheaper of the two physical designs wins *)
      let stats = Compress.analyze rel in
      let plan =
        List.filter_map
          (fun st ->
            match Compress.choose schema st with
            | Encoding.Plain -> None
            | enc ->
                (* the side-region size the compressed atoms need, from the
                   same advisor pass that proposes the scheme *)
                Some
                  ( st.Compress.attr,
                    { Emit.enc; entries = Compress.entries st enc } ))
          (Array.to_list stats)
      in
      let p0, c0, s0 = plain_search in
      if plan = [] then (p0, c0, s0, [])
      else
        let p1, c1, s1 = search_with plan in
        if c1 < c0 then
          (p1, c1, s1, List.map (fun (a, h) -> (a, h.Emit.enc)) plan)
        else (p0, c0, s0, [])
  in
  let layout = layout_of_partitioning schema partitioning in
  let row_cost =
    workload_cost_with ?estimate ?params ?additive cat table
      (Layout.row schema) workload
  in
  let column_cost =
    workload_cost_with ?estimate ?params ?additive cat table
      (Layout.column schema) workload
  in
  {
    table;
    layout;
    encodings;
    cuts;
    estimated_cost;
    row_cost;
    column_cost;
    search;
  }

let optimize ?algorithm ?extended ?compress ?estimate ?params cat workload =
  List.map
    (fun table ->
      optimize_table ?algorithm ?extended ?compress ?estimate ?params cat
        table workload)
    (tables cat workload)

let apply cat results =
  List.iter
    (fun r ->
      if r.encodings = [] then
        Storage.Catalog.set_layout cat r.table r.layout
      else Compress.apply cat r.table ~layout:r.layout r.encodings)
    results
