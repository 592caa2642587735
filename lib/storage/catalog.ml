type entry = {
  mutable rel : Relation.t;
  mutable indexes : (string * Index.kind * string list * Index.t) list;
}

type op =
  | Create_relation of {
      table : string;
      schema : Schema.t;
      layout : int list list;
      encodings : (int * Encoding.t) list;
    }
  | Append of { table : string; values : Value.t array }
  | Load of { table : string; rows : Value.t array array }
  | Update of { table : string; tid : int; attr : int; value : Value.t }
  | Set_layout of { table : string; layout : int list list }
  | Set_physical of {
      table : string;
      layout : int list list;
      encodings : (int * Encoding.t) list;
    }
  | Create_index of {
      table : string;
      iname : string;
      kind : Index.kind;
      attrs : string list;
    }

(* What a registered observer (the durability manager) is told: transaction
   frames and each op a writer applied, as the writer gave it.  With no
   observer, reporting is a single [None] match that builds nothing, so the
   non-durable hot path is untouched. *)
type event = Begin | Commit | Abort | Op of op

type t = {
  arena : Arena.t;
  hier : Memsim.Hierarchy.t option;
  tbl : (string, entry) Hashtbl.t;
  mutable obs : (event -> unit) option;
}

let m_inserts =
  Obs.Metrics.counter "mrdb_catalog_inserts_total"
    ~help:"Rows appended through the catalog"

let m_updates =
  Obs.Metrics.counter "mrdb_catalog_updates_total"
    ~help:"In-place attribute updates through the catalog"

let m_layout_changes =
  Obs.Metrics.counter "mrdb_catalog_layout_changes_total"
    ~help:"Table repartitions via set_layout"

let create ?hier ?arena () =
  let arena = match arena with Some a -> a | None -> Arena.create () in
  { arena; hier; tbl = Hashtbl.create 16; obs = None }

let arena t = t.arena
let hier t = t.hier

let set_observer t f = t.obs <- Some f
let clear_observer t = t.obs <- None

let emit t ev = match t.obs with Some f -> f ev | None -> ()

let in_txn t f =
  match t.obs with
  | None -> f ()
  | Some _ -> (
      emit t Begin;
      match f () with
      | r ->
          emit t Commit;
          r
      | exception e ->
          emit t Abort;
          raise e)

let add_relation t rel =
  let schema = Relation.schema rel in
  let name = schema.Schema.name in
  Hashtbl.replace t.tbl name { rel; indexes = [] };
  match t.obs with
  | None -> ()
  | Some f ->
      f
        (Op
           (Create_relation
              {
                table = name;
                schema;
                layout = Layout.to_groups (Relation.layout rel);
                encodings = Relation.encodings rel;
              }))

let add ?encodings t schema layout =
  let rel = Relation.create ?hier:t.hier ?encodings t.arena schema layout in
  add_relation t rel;
  rel

let entry t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise (Mrdb_util.Errors.Unknown_table name)

let find t name = (entry t name).rel

let relation e = e.rel

let mem t name = Hashtbl.mem t.tbl name

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

let build_index rel kind attr_names =
  let schema = Relation.schema rel in
  let attrs = Schema.attr_indices schema attr_names in
  match (kind : Index.kind) with
  | Index.Hash -> Index.build_hash rel ~attrs
  | Index.Rbtree -> (
      match attrs with
      | [ a ] -> Index.build_rb rel ~attr:a
      | _ -> invalid_arg "Catalog: rbtree index takes exactly one attribute")

let rebuild_all e =
  e.indexes <-
    List.map
      (fun (iname, kind, attr_names, _) ->
        (iname, kind, attr_names, build_index e.rel kind attr_names))
      e.indexes

let set_layout t name layout =
  let e = entry t name in
  Obs.Metrics.incr m_layout_changes;
  e.rel <- Relation.repartition e.rel layout;
  rebuild_all e;
  match t.obs with
  | None -> ()
  | Some f ->
      f (Op (Set_layout { table = name; layout = Layout.to_groups layout }))

let m_physical_changes =
  Obs.Metrics.counter "mrdb_catalog_physical_changes_total"
    ~help:"Table rebuilds via set_physical (layout and/or encodings)"

let set_physical t name ?layout encodings =
  let e = entry t name in
  let layout =
    match layout with Some l -> l | None -> Relation.layout e.rel
  in
  Obs.Metrics.incr m_physical_changes;
  e.rel <- Relation.recompress e.rel ~layout encodings;
  rebuild_all e;
  match t.obs with
  | None -> ()
  | Some f ->
      f
        (Op
           (Set_physical
              { table = name; layout = Layout.to_groups layout; encodings }))

let create_index t name ~name:iname ~kind ~attrs =
  let e = entry t name in
  let idx = build_index e.rel kind attrs in
  e.indexes <- (iname, kind, attrs, idx) :: e.indexes;
  match t.obs with
  | None -> ()
  | Some f -> f (Op (Create_index { table = name; iname; kind; attrs }))

let indexes t name =
  List.map (fun (iname, _, _, idx) -> (iname, idx)) (entry t name).indexes

let find_index t name ~attrs =
  let e = entry t name in
  let sorted = List.sort compare attrs in
  let rec go = function
    | [] -> None
    | (_, _, _, idx) :: rest ->
        if List.sort compare (Index.attrs idx) = sorted then Some idx
        else go rest
  in
  go e.indexes

let rebuild_entry_indexes e ~attrs =
  e.indexes <-
    List.map
      (fun ((iname, kind, attr_names, idx) as entry) ->
        let key = Index.attrs idx in
        if List.exists (fun a -> List.mem a key) attrs then
          (iname, kind, attr_names, build_index e.rel kind attr_names)
        else entry)
      e.indexes

let rebuild_indexes_for t name ~attrs =
  rebuild_entry_indexes (entry t name) ~attrs

let notify t op =
  (match op with
  | Append _ -> Obs.Metrics.incr m_inserts
  | Update _ -> Obs.Metrics.incr m_updates
  | Create_relation _ | Load _ | Set_layout _ | Set_physical _
  | Create_index _ ->
      ());
  match t.obs with Some f -> f (Op op) | None -> ()

let notify_update t table ~tid ~attr ~value =
  Obs.Metrics.incr m_updates;
  match t.obs with
  | None -> ()
  | Some f -> f (Op (Update { table; tid; attr; value }))

(* A loop, not [List.iter], whose closure every appended row would
   allocate. *)
let rec insert_into rel tid = function
  | [] -> ()
  | (_, _, _, idx) :: rest ->
      Index.insert idx rel ~tid;
      insert_into rel tid rest

let index_insert e ~tid = insert_into e.rel tid e.indexes

let index_defs t name =
  List.rev_map
    (fun (iname, kind, attrs, _) -> (iname, kind, attrs))
    (entry t name).indexes
