module Value = Storage.Value
module Relation = Storage.Relation
module Catalog = Storage.Catalog
module Physical = Relalg.Physical
module Expr = Relalg.Expr

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

let update ~per_value ~call_cost cat ~params ~table ~access ~post ~assignments
    =
  let rel = Catalog.find cat table in
  let hier = Catalog.hier cat in
  let charge n = Runtime.charge hier n in
  let updated = ref 0 in
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
    if matches then begin
      (* evaluate every right-hand side against the OLD tuple first *)
      let new_values =
        List.map (fun (a, e) -> (a, Expr.eval e ~params col)) assignments
      in
      List.iter
        (fun (a, v) ->
          charge per_value;
          Relation.set rel tid a v;
          Catalog.notify_update cat table ~tid ~attr:a ~value:v)
        new_values;
      incr updated
    end
  in
  Catalog.in_txn cat @@ fun () ->
  (match index_tids cat params table access with
  | Some tids -> List.iter visit tids
  | None ->
      for tid = 0 to Relation.nrows rel - 1 do
        visit tid
      done);
  if !updated > 0 then
    Catalog.rebuild_indexes_for cat table ~attrs:(List.map fst assignments);
  !updated
