type entry = {
  name : string;
  mutable rel : Relation.t;
  mutable indexes : (string * Index.kind * string list * Index.t) list;
}

(* Observation events for mutating operations.  A registered observer (the
   durability manager) turns these into write-ahead-log records; with no
   observer every notification is a single [None] match, so the non-durable
   hot path is untouched. *)
type obs_event =
  | Obs_begin
  | Obs_commit
  | Obs_abort
  | Obs_create_relation of { table : string }
  | Obs_append of { table : string; rel : Relation.t; tid : int }
  | Obs_load of { table : string; row_lo : int; rows : int }
  | Obs_update of { table : string; tid : int; attr : int; value : Value.t }
  | Obs_set_layout of { table : string; layout : Layout.t }
  | Obs_set_physical of {
      table : string;
      layout : Layout.t;
      encodings : (int * Encoding.t) list;
    }
  | Obs_create_index of {
      table : string;
      iname : string;
      kind : Index.kind;
      attrs : string list;
    }

type t = {
  arena : Arena.t;
  hier : Memsim.Hierarchy.t option;
  tbl : (string, entry) Hashtbl.t;
  mutable obs : (obs_event -> unit) option;
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
let observed t = t.obs <> None

let emit t ev = match t.obs with Some f -> f ev | None -> ()

let in_txn t f =
  match t.obs with
  | None -> f ()
  | Some _ -> (
      emit t Obs_begin;
      match f () with
      | r ->
          emit t Obs_commit;
          r
      | exception e ->
          emit t Obs_abort;
          raise e)

let add_relation t rel =
  let name = (Relation.schema rel).Schema.name in
  Hashtbl.replace t.tbl name { name; rel; indexes = [] };
  emit t (Obs_create_relation { table = name })

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

let set_layout t name layout =
  let e = entry t name in
  Obs.Metrics.incr m_layout_changes;
  emit t (Obs_set_layout { table = name; layout });
  e.rel <- Relation.repartition e.rel layout;
  e.indexes <-
    List.map
      (fun (iname, kind, attr_names, _) ->
        (iname, kind, attr_names, build_index e.rel kind attr_names))
      e.indexes

let m_physical_changes =
  Obs.Metrics.counter "mrdb_catalog_physical_changes_total"
    ~help:"Table rebuilds via set_physical (layout and/or encodings)"

let set_physical t name ?layout encodings =
  let e = entry t name in
  let layout =
    match layout with Some l -> l | None -> Relation.layout e.rel
  in
  Obs.Metrics.incr m_physical_changes;
  emit t (Obs_set_physical { table = name; layout; encodings });
  e.rel <- Relation.recompress e.rel ~layout encodings;
  e.indexes <-
    List.map
      (fun (iname, kind, attr_names, _) ->
        (iname, kind, attr_names, build_index e.rel kind attr_names))
      e.indexes

let create_index t name ~name:iname ~kind ~attrs =
  let e = entry t name in
  emit t (Obs_create_index { table = name; iname; kind; attrs });
  let idx = build_index e.rel kind attrs in
  e.indexes <- (iname, kind, attrs, idx) :: e.indexes

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

let notify_entry_insert t e ~tid =
  Obs.Metrics.incr m_inserts;
  emit t (Obs_append { table = e.name; rel = e.rel; tid });
  List.iter (fun (_, _, _, idx) -> Index.insert idx e.rel ~tid) e.indexes

let notify_insert t name ~tid = notify_entry_insert t (entry t name) ~tid

let notify_update t name ~tid ~attr ~value =
  Obs.Metrics.incr m_updates;
  match t.obs with
  | None -> ()
  | Some f -> f (Obs_update { table = name; tid; attr; value })

let notify_load t name ~row_lo ~rows =
  match t.obs with
  | None -> ()
  | Some f -> f (Obs_load { table = name; row_lo; rows })

let index_defs t name =
  List.rev_map
    (fun (iname, kind, attrs, _) -> (iname, kind, attrs))
    (entry t name).indexes
