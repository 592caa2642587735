type kind = Hash | Rbtree

type impl = H of Hash_index.t | R of Rb_index.t

type t = { impl : impl; attrs : int list }

let kind t = match t.impl with H _ -> Hash | R _ -> Rbtree
let attrs t = t.attrs

let key_of rel tid attrs =
  Hash_index.key_of_values (List.map (fun a -> Relation.get rel tid a) attrs)

let build_hash rel ~attrs =
  let idx =
    Hash_index.create (Relation.arena rel)
      ?hier:(Relation.hier rel)
      ~capacity:(max 16 (Relation.nrows rel))
      ()
  in
  Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
      for tid = 0 to Relation.nrows rel - 1 do
        Hash_index.insert idx ~key:(key_of rel tid attrs) ~tid
      done);
  { impl = H idx; attrs }

let build_rb rel ~attr =
  let idx = Rb_index.create (Relation.arena rel) ?hier:(Relation.hier rel) () in
  Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
      for tid = 0 to Relation.nrows rel - 1 do
        Rb_index.insert idx ~key:(Value.to_int (Relation.get rel tid attr)) ~tid
      done);
  { impl = R idx; attrs = [ attr ] }

let insert t rel ~tid =
  match t.impl with
  | H idx -> Hash_index.insert idx ~key:(key_of rel tid t.attrs) ~tid
  | R idx -> (
      match t.attrs with
      | [ a ] -> Rb_index.insert idx ~key:(Value.to_int (Relation.get rel tid a)) ~tid
      | _ -> invalid_arg "Index.insert: rbtree must have one attribute")

let verify rel tid attrs values =
  List.for_all2 (fun a v -> Value.equal (Relation.get rel tid a) v) attrs values

let lookup_eq t rel values =
  match t.impl with
  | H idx ->
      let key = Hash_index.key_of_values values in
      List.filter
        (fun tid -> verify rel tid t.attrs values)
        (Hash_index.lookup idx ~key)
  | R idx -> (
      match values with
      | [ v ] -> Rb_index.lookup idx ~key:(Value.to_int v)
      | _ -> invalid_arg "Index.lookup_eq: rbtree takes one key")

let lookup_range t ~lo ~hi =
  match t.impl with
  | R idx -> Rb_index.range idx ~lo:(Value.to_int lo) ~hi:(Value.to_int hi)
  | H _ -> invalid_arg "Index.lookup_range: hash index has no order"
