module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Physical = Relalg.Physical
module Expr = Relalg.Expr
module Write = Storage.Write

let key params e = Expr.eval e ~params (fun _ -> assert false)

let find_index cat table attrs =
  match Catalog.find_index cat table ~attrs with
  | Some idx -> idx
  | None -> invalid_arg "index_tids: planner chose a missing index"

(* a full scan allocates nothing here: engines call this on every scan *)
let index_tids cat params table access =
  match (access : Physical.access) with
  | Physical.Full_scan -> None
  | Physical.Index_eq { attrs; keys } ->
      let key_values = List.map (key params) keys in
      Some
        (Storage.Index.lookup_eq (find_index cat table attrs)
           (Catalog.find cat table) key_values)
  | Physical.Index_range { attr; lo; hi } ->
      let idx = find_index cat table [ attr ] in
      Some
        (Storage.Index.lookup_range idx ~lo:(key params lo) ~hi:(key params hi))

let values ~params exprs =
  Array.of_list
    (List.map
       (fun e ->
         Expr.eval e ~params (fun _ ->
             invalid_arg "INSERT values cannot reference columns"))
       exprs)

let insert ~per_value cat ~params ~table ~values:exprs =
  let values = values ~params exprs in
  Runtime.charge (Catalog.hier cat) (per_value * Array.length values);
  Write.apply cat (Write.Append { table; values })

let locate_updates ~per_value ~call_cost cat ~params ~table ~access ~post
    ~assignments sink =
  let rel = Catalog.find cat table in
  let charge = Runtime.charge (Catalog.hier cat) in
  let visit tid =
    charge call_cost;
    let col i =
      charge per_value;
      Relation.get rel tid i
    in
    let matches =
      match post with
      | None -> true
      | Some pred -> Expr.truthy (Expr.eval pred ~params col)
    in
    (* evaluate every right-hand side against the OLD tuple first *)
    if matches then
      sink tid (List.map (fun (a, e) -> (a, Expr.eval e ~params col)) assignments)
  in
  match index_tids cat params table access with
  | Some tids -> List.iter visit tids
  | None ->
      for tid = 0 to Relation.nrows rel - 1 do
        visit tid
      done

let update ~per_value ~call_cost cat ~params ~table ~access ~post ~assignments
    =
  let charge = Runtime.charge (Catalog.hier cat) in
  Write.statement cat table (fun write ->
      locate_updates ~per_value ~call_cost cat ~params ~table ~access ~post
        ~assignments (fun tid values ->
          charge (per_value * List.length values);
          write tid values))
