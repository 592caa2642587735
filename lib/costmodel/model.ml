let query_cost ?layouts ?encodings ?estimate
    ?(params = Memsim.Params.nehalem) ?(additive = false) cat plan =
  let pattern, _ = Emit.emit ?layouts ?encodings ?estimate cat plan in
  Cost_function.cost ~additive params pattern

let workload_cost ?layouts ?encodings ?estimate ?params ?additive cat
    queries =
  List.fold_left
    (fun acc (plan, freq) ->
      acc
      +. freq
         *. query_cost ?layouts ?encodings ?estimate ?params ?additive cat
              plan)
    0.0 queries
