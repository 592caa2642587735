type query = {
  name : string;
  description : string;
  freq : float;
  sql : string;
  make_plan : use_indexes:bool -> Relalg.Physical.t;
  params : Storage.Value.t array;
  modifies : bool;
}

let plans ?(use_indexes = false) queries =
  List.map (fun q -> (q.make_plan ~use_indexes, q.freq)) queries
