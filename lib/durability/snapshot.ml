(* Snapshots: a checksummed serialization of the full catalog — schemas,
   layouts, encodings, row contents, index definitions — plus the WAL
   watermark (the last transaction id the snapshot covers).

   Wire format:  u32 payload length | u32 CRC-32 | payload
   where the payload is  magic "MRDBSNP1" | i64 last_txid | catalog state.

   The writer builds the whole frame in one presized buffer: Plain fields
   are copied straight from the partition bytes into their tagged value
   encoding, without boxing a value, and the header is patched in place.

   A checkpoint writes the snapshot to a temporary store, flushes, then
   atomically renames it over the previous snapshot — so at every crash
   point there is exactly one valid snapshot on the medium.  Index contents
   are not serialized: they are derived data, rebuilt at recovery from the
   stored definitions (deterministic, so lookup-identical). *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Layout = Storage.Layout
module Schema = Storage.Schema
module Value = Storage.Value
module Buffer = Storage.Buffer
module Encoding = Storage.Encoding

let magic = "MRDBSNP1"
let store_name = "snapshot"
let tmp_name = "snapshot.tmp"

(* One attribute as the row writer walks it: a Plain field of tuple [tid]
   sits at [off + tid * stride] of [buf]; an encoded attribute keeps its
   values in OCaml-side structures and is read through [Relation.get]. *)
type column =
  | Stored of {
      buf : Buffer.t;
      off : int;
      stride : int;
      ty : Value.ty;
      nullable : bool;
    }
  | Encoded of int

let columns rel =
  let schema = Relation.schema rel in
  Array.init (Schema.arity schema) (fun a ->
      match Relation.encoding rel a with
      | Encoding.Plain ->
          let pi = Relation.part_of_attr rel a in
          let attr = Schema.attr schema a in
          Stored
            {
              buf = Relation.part_buffer rel pi;
              off = Relation.part_row_offset rel pi + Relation.attr_offset rel a;
              stride = Relation.part_width rel pi;
              ty = attr.Schema.ty;
              nullable = attr.Schema.nullable;
            }
      | _ -> Encoded a)

(* The bytes [Codec.value] writes for the stored field at [off]. *)
let[@inline] stored_field w buf off ~ty ~nullable =
  let p = Buffer.stored_payload buf off ~nullable in
  if p < 0 then Codec.vnull w
  else
    match (ty : Value.ty) with
    | Value.Int -> Codec.vint w (Buffer.untraced_read_int buf p)
    | Value.Date -> Codec.vdate w (Buffer.untraced_read_int buf p)
    | Value.Float -> Codec.vfloat_sub w (Buffer.unsafe_bytes buf) ~pos:p
    | Value.Bool -> Codec.vbool w (Buffer.stored_bool buf p)
    | Value.Varchar n ->
        Codec.vstr_sub w (Buffer.unsafe_bytes buf) ~pos:p
          ~len:(Buffer.stored_varchar_length buf p ~len:n)

(* Rows in tid order, fields in schema order; the arity is known from the
   schema, so rows carry no framing of their own.  Only the encoded reads
   would be traced; they run untraced. *)
let write_rows w rel =
  let cols = columns rel in
  let rows () =
    for tid = 0 to Relation.nrows rel - 1 do
      for i = 0 to Array.length cols - 1 do
        match cols.(i) with
        | Stored c ->
            stored_field w c.buf (c.off + (tid * c.stride)) ~ty:c.ty
              ~nullable:c.nullable
        | Encoded a -> Codec.value w (Relation.get rel tid a)
      done
    done
  in
  Memsim.Hierarchy.untraced (Relation.hier rel) rows

(* Canonical serialization of the catalog state (no watermark): tables in
   sorted name order, rows in tid order, index definitions sorted by name.
   Two catalogs are value-identical iff their states serialize equally —
   the recovery tests' equality oracle. *)
let write_state w cat =
  let names = Catalog.names cat in
  Codec.u32 w (List.length names);
  List.iter
    (fun name ->
      let rel = Catalog.find cat name in
      Codec.schema w (Relation.schema rel);
      Codec.layout_groups w (Layout.to_groups (Relation.layout rel));
      Codec.encodings w (Relation.encodings rel);
      Codec.i64 w (Relation.nrows rel);
      write_rows w rel;
      Codec.list w
        (fun w (iname, kind, attrs) ->
          Codec.str w iname;
          Codec.index_kind w kind;
          Codec.list w Codec.str attrs)
        (List.sort compare (Catalog.index_defs cat name)))
    names

(* Room for the state: a tag and the widest payload per field, and slack
   for each table's header, so the writer seldom regrows. *)
let size_hint cat =
  let field_max (a : Schema.attr) =
    match a.Schema.ty with
    | Value.Int | Value.Float | Value.Date -> 9
    | Value.Bool -> 2
    | Value.Varchar n -> 5 + n
  in
  List.fold_left
    (fun acc name ->
      let rel = Catalog.find cat name in
      let row =
        Array.fold_left
          (fun acc a -> acc + field_max a)
          0 (Relation.schema rel).Schema.attrs
      in
      acc + 1024 + (Relation.nrows rel * row))
    64 (Catalog.names cat)

let state_writer cat =
  let w = Codec.writer ~size:(size_hint cat) () in
  write_state w cat;
  w

let serialize_state cat = Codec.contents (state_writer cat)

let serialize_payload ~last_txid cat =
  let w = Codec.writer ~size:(8 + size_hint cat) () in
  Codec.i64 w last_txid;
  write_state w cat;
  Codec.contents w

let digest cat =
  let w = state_writer cat in
  Digest.to_hex (Digest.subbytes (Codec.unsafe_bytes w) 0 (Codec.length w))

(* Every malformed field raises [Codec.Truncated]: an index naming an
   attribute its schema lacks is checked here, before [Catalog.create_index]
   would raise [Not_found]. *)
let deserialize_state ?hier r =
  let cat = Catalog.create ?hier () in
  let apply () =
    let ntables = Codec.ru32 r in
    for _ = 1 to ntables do
      let schema = Codec.rschema r in
      let groups = Codec.rlayout_groups r in
      let encodings = Codec.rencodings r in
      let layout = Layout.of_indices schema groups in
      let nrows = Codec.ri64 r in
      let rel = Catalog.add ~encodings cat schema layout in
      for _ = 1 to nrows do
        let row =
          Array.init (Schema.arity schema) (fun _ -> Codec.rvalue r)
        in
        ignore (Relation.append rel row)
      done;
      let defs =
        Codec.rlist r (fun r ->
            let iname = Codec.rstr r in
            let kind = Codec.rindex_kind r in
            let attrs = Codec.rlist r Codec.rstr in
            (iname, kind, attrs))
      in
      List.iter
        (fun (iname, kind, attrs) ->
          List.iter
            (fun a ->
              match Schema.attr_index schema a with
              | _ -> ()
              | exception Not_found ->
                  raise
                    (Codec.Truncated
                       (Printf.sprintf "index %s: unknown attribute %s" iname
                          a)))
            attrs;
          Catalog.create_index cat schema.Schema.name ~name:iname ~kind ~attrs)
        defs
    done
  in
  Memsim.Hierarchy.untraced hier apply;
  cat

(* watermark, then state *)
let read_payload ?hier r =
  let last_txid = Codec.ri64 r in
  let cat = deserialize_state ?hier r in
  (cat, last_txid)

let deserialize_payload ?hier payload =
  read_payload ?hier (Codec.reader (Bytes.unsafe_of_string payload))

(* ------------------------------------------------------------------ *)
(* Durable write / read                                               *)
(* ------------------------------------------------------------------ *)

let m_snapshots =
  Obs.Metrics.counter "mrdb_snapshots_total" ~help:"Snapshots written"

let m_snapshot_bytes =
  Obs.Metrics.counter "mrdb_snapshot_bytes_total"
    ~help:"Snapshot payload bytes written"

let m_snapshot_seconds =
  Obs.Metrics.histogram "mrdb_snapshot_seconds"
    ~help:"Wall time to serialize and persist one snapshot"

let write env ~last_txid cat =
  let t0 = Unix.gettimeofday () in
  let w =
    Codec.writer
      ~size:(Codec.frame_header + String.length magic + 8 + size_hint cat)
      ()
  in
  let hdr = Codec.frame_open w in
  Codec.raw w magic;
  Codec.i64 w last_txid;
  write_state w cat;
  Codec.frame_close w hdr;
  let buf = Codec.unsafe_bytes w and len = Codec.length w in
  let payload = len - Codec.frame_header in
  (* the sink buffers the frame where it was built, so neither write copies
     it; header and payload are two writes, hence two crash points *)
  let sink = Faultio.create ~pending:buf env tmp_name in
  Faultio.write_sub sink buf ~pos:0 ~len:Codec.frame_header;
  Faultio.write_sub sink buf ~pos:Codec.frame_header ~len:payload;
  Faultio.flush sink;
  Faultio.close sink;
  Faultio.rename env ~src:tmp_name ~dst:store_name;
  Obs.Metrics.incr m_snapshots;
  Obs.Metrics.add m_snapshot_bytes payload;
  Obs.Metrics.observe m_snapshot_seconds (Unix.gettimeofday () -. t0)

type read_result =
  | Loaded of Catalog.t * int  (** catalog and its WAL watermark *)
  | Missing
  | Invalid of string

let read ?hier env =
  match Faultio.read_all env store_name with
  | None -> Missing
  | Some buf -> (
      match Codec.read_frame buf ~pos:0 with
      | Codec.Short ->
          Invalid
            (Printf.sprintf "snapshot: torn header (%d bytes)"
               (Bytes.length buf))
      | Codec.Overlong len ->
          Invalid
            (Printf.sprintf "snapshot: torn (claims %d bytes, %d present)" len
               (Bytes.length buf - Codec.frame_header))
      | Codec.Corrupt _ -> Invalid "snapshot: checksum mismatch"
      | Codec.Framed len -> (
          let mlen = String.length magic in
          if len < mlen || Bytes.sub_string buf Codec.frame_header mlen <> magic
          then Invalid "snapshot: bad magic"
          else
            try
              let cat, last_txid =
                read_payload ?hier
                  (Codec.reader
                     ~pos:(Codec.frame_header + mlen)
                     ~len:(len - mlen) buf)
              in
              Loaded (cat, last_txid)
            with
            | Codec.Truncated what -> Invalid ("snapshot: " ^ what)
            | Invalid_argument what -> Invalid ("snapshot: " ^ what)))
