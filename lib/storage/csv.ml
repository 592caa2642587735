(* [Buffer] below is the standard library's, not Storage.Buffer *)
module Sbuf = Stdlib.Buffer

let split_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Sbuf.create 16 in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = line.[!i] in
    if !in_quotes then
      if c = '"' then
        if !i + 1 < n && line.[!i + 1] = '"' then begin
          Sbuf.add_char buf '"';
          i := !i + 2
        end
        else begin
          in_quotes := false;
          incr i
        end
      else begin
        Sbuf.add_char buf c;
        incr i
      end
    else if c = '"' then begin
      in_quotes := true;
      incr i
    end
    else if c = ',' then begin
      fields := Sbuf.contents buf :: !fields;
      Sbuf.clear buf;
      incr i
    end
    else begin
      Sbuf.add_char buf c;
      incr i
    end
  done;
  if !in_quotes then failwith "Csv: unterminated quote";
  fields := Sbuf.contents buf :: !fields;
  List.rev !fields

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n') s

let quote s =
  if needs_quoting s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let field_of_value (v : Value.t) =
  match v with
  | Value.Null -> ""
  | Value.VInt x -> string_of_int x
  | Value.VFloat f -> Printf.sprintf "%.17g" f
  | Value.VBool b -> string_of_bool b
  | Value.VDate d -> string_of_int d
  | Value.VStr s -> quote s

let export rel path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let schema = Relation.schema rel in
      let names =
        List.init (Schema.arity schema) (fun i ->
            (Schema.attr schema i).Schema.name)
      in
      output_string oc (String.concat "," names);
      output_char oc '\n';
      for tid = 0 to Relation.nrows rel - 1 do
        let row = Relation.get_tuple rel tid in
        output_string oc
          (String.concat "," (Array.to_list (Array.map field_of_value row)));
        output_char oc '\n'
      done)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let value_of_field (ty : Value.ty) nullable field =
  if String.equal field "" then
    if nullable then Value.Null
    else failwith "Csv: empty field for non-nullable attribute"
  else
    match ty with
    | Value.Int -> Value.VInt (int_of_string field)
    | Value.Date -> Value.VDate (int_of_string field)
    | Value.Float -> Value.VFloat (float_of_string field)
    | Value.Bool -> Value.VBool (bool_of_string field)
    | Value.Varchar _ -> Value.VStr field

let import cat ~table path =
  let rel = Catalog.find cat table in
  let schema = Relation.schema rel in
  match read_lines path with
  | [] -> failwith "Csv: empty file"
  | header :: rows ->
      let positions =
        List.map
          (fun name ->
            try Schema.attr_index schema (String.trim name)
            with Not_found -> failwith (Printf.sprintf "Csv: unknown column %S" name))
          (split_line header)
      in
      let arity = Schema.arity schema in
      let append line =
        let fields = split_line line in
        if List.length fields <> List.length positions then
          failwith "Csv: row arity does not match header";
        let tuple = Array.make arity Value.Null in
        List.iter2
          (fun pos field ->
            let a = Schema.attr schema pos in
            tuple.(pos) <- value_of_field a.Schema.ty a.Schema.nullable field)
          positions fields;
        (* non-nullable attributes missing from the header are an error *)
        Array.iteri
          (fun i v ->
            if Value.is_null v && not (Schema.attr schema i).Schema.nullable
            then
              failwith
                (Printf.sprintf "Csv: missing non-nullable column %s"
                   (Schema.attr schema i).Schema.name))
          tuple;
        Write.Append { table; values = tuple }
      in
      let ops =
        List.filter_map
          (fun line ->
            if String.equal (String.trim line) "" then None
            else Some (append line))
          rows
      in
      (* one transaction per file, every row parsed and checked before any
         is applied: a malformed row or a crash mid-import leaves either no
         rows or the whole file, never a prefix.  Loading is setup work, so
         the appends and their index maintenance run untraced. *)
      Catalog.in_txn cat (fun () ->
          Memsim.Hierarchy.untraced (Relation.hier rel) (fun () ->
              Write.apply_all cat ops));
      List.length ops

(* column type inference over the data rows *)
let infer_type fields =
  let non_empty = List.filter (fun f -> not (String.equal f "")) fields in
  let nullable = List.length non_empty < List.length fields in
  let all p = non_empty <> [] && List.for_all p non_empty in
  let ty =
    if all (fun f -> int_of_string_opt f <> None) then Value.Int
    else if all (fun f -> float_of_string_opt f <> None) then Value.Float
    else if all (fun f -> bool_of_string_opt f <> None) then Value.Bool
    else
      let width =
        List.fold_left (fun acc f -> max acc (String.length f)) 1 non_empty
      in
      Value.Varchar (max 8 width)
  in
  (ty, nullable)

let import_new cat ~name path =
  match read_lines path with
  | [] -> failwith "Csv: empty file"
  | header :: rows ->
      let names = List.map String.trim (split_line header) in
      let data_rows =
        List.filter (fun l -> not (String.equal (String.trim l) "")) rows
        |> List.map split_line
      in
      let columns =
        List.mapi
          (fun i col_name ->
            let fields =
              List.map
                (fun row ->
                  try List.nth row i
                  with _ -> failwith "Csv: row arity does not match header")
                data_rows
            in
            let ty, nullable = infer_type fields in
            (col_name, ty, nullable))
          names
      in
      let schema = Schema.make_nullable name columns in
      let rows =
        Array.of_list
          (List.map
             (fun row ->
               Array.of_list
                 (List.mapi
                    (fun i field ->
                      let a = Schema.attr schema i in
                      value_of_field a.Schema.ty a.Schema.nullable field)
                    row))
             data_rows)
      in
      (* one transaction: the table and its rows recover together *)
      Catalog.in_txn cat @@ fun () ->
      let rel = Catalog.add cat schema (Layout.row schema) in
      Write.apply cat (Write.Load { table = name; rows });
      rel
