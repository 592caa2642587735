(* The catalog's write vocabulary, its check and its apply.

   [check] mirrors the refusals of [Relation.append] and [Relation.set]
   without writing anything.  The stored relations raise part-way through a
   tuple, so without it a transaction, a 2PC participant or a statement
   that meets a value its attribute cannot take is left half-applied. *)

module Errors = Mrdb_util.Errors

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

let check cat = function
  | Append { table; values } -> check_row (Catalog.find cat table) table values
  | Load { table; rows } ->
      let rel = Catalog.find cat table in
      Array.iter (check_row rel table) rows
  | Update { table; tid; attr; value } ->
      check_update (Catalog.find cat table) table ~tid ~attr value
  | Create_relation _ | Set_layout _ | Set_physical _ | Create_index _ -> ()

let apply_checked cat = function
  | Create_relation { table = _; schema; layout; encodings } ->
      ignore (Catalog.add ~encodings cat schema (Layout.of_indices schema layout))
  | Append { table; values } ->
      let tid = Relation.append (Catalog.find cat table) values in
      Catalog.notify_insert cat table ~tid
  | Load { table; rows } ->
      let rel = Catalog.find cat table in
      Array.iter (fun row -> ignore (Relation.append rel row)) rows
  | Update { table; tid; attr; value } ->
      Relation.set (Catalog.find cat table) tid attr value;
      Catalog.notify_update cat table ~tid ~attr ~value
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

let apply cat op =
  check cat op;
  apply_checked cat op

(* Rebuild, once per table, the indexes whose key an Update of [ops]
   touched. *)
let rebuild_updated cat ops =
  let touched = Hashtbl.create 4 in
  List.iter
    (function
      | Update { table; attr; _ } ->
          let attrs =
            Option.value (Hashtbl.find_opt touched table) ~default:[]
          in
          if not (List.mem attr attrs) then
            Hashtbl.replace touched table (attr :: attrs)
      | _ -> ())
    ops;
  Hashtbl.iter
    (fun table attrs -> Catalog.rebuild_indexes_for cat table ~attrs)
    touched

let apply_all cat ops =
  List.iter (check cat) ops;
  List.iter (apply_checked cat) ops;
  rebuild_updated cat ops

let untraced rel f =
  match Relation.hier rel with
  | Some h -> Memsim.Hierarchy.without_tracing h f
  | None -> f ()

let statement cat table f =
  let rel = Catalog.find cat table in
  (* the overwritten cells, newest first, and the attributes written *)
  let saved = ref [] and attrs = ref [] in
  let write tid values =
    List.iter
      (fun (attr, value) ->
        check_update rel table ~tid ~attr value;
        let old = untraced rel (fun () -> Relation.get rel tid attr) in
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
          untraced rel (fun () -> Relation.set rel tid attr old))
        !saved;
      Printexc.raise_with_backtrace e bt
