type stats = { cost_evaluations : int; nodes_visited : int }

let base_partitioning n_attrs = [ List.init n_attrs Fun.id ]

let optimize ~cost ~n_attrs ~cuts ~threshold =
  let evals = ref 0 in
  let nodes = ref 0 in
  let cost p =
    incr evals;
    cost p
  in
  let best = ref (base_partitioning n_attrs) in
  let best_cost = ref (cost !best) in
  let rec search current current_cost remaining =
    incr nodes;
    if current_cost < !best_cost then begin
      best := current;
      best_cost := current_cost
    end;
    match remaining with
    | [] -> ()
    | cut :: rest ->
        let refined = Cut.refine current cut in
        if refined = current then search current current_cost rest
        else begin
          let refined_cost = cost refined in
          let improvement = (current_cost -. refined_cost) /. current_cost in
          if improvement > threshold then begin
            (* branch: include the cut ... *)
            search refined refined_cost rest;
            (* ... or exclude it *)
            search current current_cost rest
          end
          else
            (* below threshold: prune the include branch *)
            search current current_cost rest
        end
  in
  search !best !best_cost cuts;
  (!best, !best_cost, { cost_evaluations = !evals; nodes_visited = !nodes })
