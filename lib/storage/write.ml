(* The catalog's write vocabulary, its check and its apply.

   [check] mirrors the refusals of [Relation.append] and [Relation.set]
   without writing anything.  The stored relations raise part-way through a
   tuple, so without it a transaction, a 2PC participant or a statement
   that meets a value its attribute cannot take is left half-applied. *)

module Errors = Mrdb_util.Errors

type op = Catalog.op =
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

let bad fmt = Printf.ksprintf (fun s -> raise (Errors.Bad_request s)) fmt

let check_value rel table a v =
  match Relation.rejects rel a v with
  | None -> ()
  | Some why ->
      bad "%s.%s: %s" table (Schema.attr (Relation.schema rel) a).Schema.name
        why

let check_row rel table values =
  let arity = Schema.arity (Relation.schema rel) in
  if Array.length values <> arity then
    bad "%s: %d values for %d attributes" table (Array.length values) arity;
  for a = 0 to arity - 1 do
    check_value rel table a values.(a)
  done

let check_update rel table ~tid ~attr value =
  let arity = Schema.arity (Relation.schema rel) in
  if attr < 0 || attr >= arity then
    bad "%s: no attribute %d (%d attributes)" table attr arity;
  if tid < 0 || tid >= Relation.nrows rel then
    bad "%s: no row %d (%d rows)" table tid (Relation.nrows rel);
  check_value rel table attr value

(* The checks of a row write against its table's relation. *)
let check_rel rel = function
  | Append { table; values } -> check_row rel table values
  | Load { table; rows } -> Array.iter (check_row rel table) rows
  | Update { table; tid; attr; value } ->
      check_update rel table ~tid ~attr value
  | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ -> ()

let check cat = function
  | (Append { table; _ } | Load { table; _ } | Update { table; _ }) as op ->
      check_rel (Catalog.find cat table) op
  | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ -> ()

(* Apply a row write to its table's entry [e], then report it. *)
let apply_row cat e op =
  (match op with
  | Append { values; _ } ->
      let tid = Relation.append (Catalog.relation e) values in
      Catalog.index_insert e ~tid
  | Load { rows; _ } ->
      Relation.load (Catalog.relation e) ~n:(Array.length rows) (fun ~row ->
          rows.(row))
  | Update { tid; attr; value; _ } ->
      Relation.set (Catalog.relation e) tid attr value
  | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ -> ());
  Catalog.notify cat op

let apply_ddl cat = function
  | Create_relation { table = _; schema; layout; encodings } ->
      ignore (Catalog.add ~encodings cat schema (Layout.of_indices schema layout))
  | Set_layout { table; layout } ->
      let schema = Relation.schema (Catalog.find cat table) in
      Catalog.set_layout cat table (Layout.of_indices schema layout)
  | Set_physical { table; layout; encodings } ->
      let schema = Relation.schema (Catalog.find cat table) in
      Catalog.set_physical cat table
        ~layout:(Layout.of_indices schema layout)
        encodings
  | Create_index { table; iname; kind; attrs } ->
      Catalog.create_index cat table ~name:iname ~kind ~attrs
  | Append _ | Load _ | Update _ -> ()

let apply cat op =
  match op with
  | Append { table; _ } | Load { table; _ } | Update { table; _ } ->
      let e = Catalog.entry cat table in
      check_rel (Catalog.relation e) op;
      apply_row cat e op
  | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ ->
      apply_ddl cat op

let rec known table = function
  | (name, e) :: rest -> if String.equal name table then e else known table rest
  | [] -> raise Not_found

(* The entry of [table], looked up once per op list: [seen] holds the
   entries looked up so far, and a DDL op empties it, as it may replace
   one. *)
let entry_of cat seen table =
  match known table !seen with
  | e -> e
  | exception Not_found ->
      let e = Catalog.entry cat table in
      seen := (table, e) :: !seen;
      e

let apply_all cat ops =
  let seen = ref [] in
  List.iter
    (function
      | (Append { table; _ } | Load { table; _ } | Update { table; _ }) as op ->
          check_rel (Catalog.relation (entry_of cat seen table)) op
      | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ -> ())
    ops;
  (* the indexes whose key an Update touched, rebuilt once per table *)
  let touched = ref [] in
  List.iter
    (function
      | (Append { table; _ } | Load { table; _ }) as op ->
          apply_row cat (entry_of cat seen table) op
      | Update { table; attr; _ } as op ->
          let e = entry_of cat seen table in
          apply_row cat e op;
          (match List.assq e !touched with
          | attrs -> if not (List.mem attr !attrs) then attrs := attr :: !attrs
          | exception Not_found -> touched := (e, ref [ attr ]) :: !touched)
      | (Create_relation _ | Set_layout _ | Set_physical _ | Create_index _) as op
        ->
          apply_ddl cat op;
          seen := [])
    ops;
  List.iter
    (fun (e, attrs) -> Catalog.rebuild_entry_indexes e ~attrs:!attrs)
    !touched

let statement cat table f =
  let rel = Catalog.find cat table in
  (* the overwritten cells, newest first, and the attributes written *)
  let saved = ref [] and attrs = ref [] in
  let write tid values =
    List.iter
      (fun (attr, value) ->
        check_update rel table ~tid ~attr value;
        let old =
          Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
              Relation.get rel tid attr)
        in
        saved := (tid, attr, old) :: !saved;
        if not (List.mem attr !attrs) then attrs := attr :: !attrs;
        Relation.set rel tid attr value;
        Catalog.notify_update cat table ~tid ~attr ~value)
      values
  in
  Catalog.in_txn cat @@ fun () ->
  match f write with
  | r ->
      if !attrs <> [] then Catalog.rebuild_indexes_for cat table ~attrs:!attrs;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter
        (fun (tid, attr, old) ->
          Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
              Relation.set rel tid attr old))
        !saved;
      Printexc.raise_with_backtrace e bt
