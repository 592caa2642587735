(* The write-ahead log: length-prefixed, checksummed, transaction-framed
   records for every logical mutation of the catalog.

   Wire format per record:

     u32 payload length | u32 CRC-32 of payload | payload

   The payload's first byte tags the record kind; operations carry the txid
   of their enclosing transaction.  Commit is the durability point: the
   manager flushes the sink on commit, so a crash can only lose or tear
   records of uncommitted transactions (which recovery discards anyway).

   Scanning is resilient: a torn tail (short header, impossible length,
   truncated payload at the end of the log) ends the scan; a record whose
   checksum does not match is *skipped with a warning* and taints the rest
   of the log — recovery replays only the clean prefix, because applying
   transactions that follow a hole could observe effects out of order. *)

module Write = Storage.Write

type op = Write.op

type record =
  | Begin of int
  | Commit of int
  | Abort of int
  | Op of { txid : int; op : op }
  | Prepare of int
      (** Two-phase commit vote: the transaction's operations are durable on
          this participant and it may no longer abort unilaterally. *)

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let encode_op w = function
  | Write.Create_relation { table; schema; layout; encodings } ->
      Codec.u8 w 1;
      Codec.str w table;
      Codec.schema w schema;
      Codec.layout_groups w layout;
      Codec.encodings w encodings
  | Write.Append { table; values } ->
      Codec.u8 w 2;
      Codec.str w table;
      Codec.array w Codec.value values
  | Write.Load { table; rows } ->
      Codec.u8 w 3;
      Codec.str w table;
      Codec.array w (fun w row -> Codec.array w Codec.value row) rows
  | Write.Update { table; tid; attr; value } ->
      Codec.u8 w 4;
      Codec.str w table;
      Codec.i64 w tid;
      Codec.u32 w attr;
      Codec.value w value
  | Write.Set_layout { table; layout } ->
      Codec.u8 w 5;
      Codec.str w table;
      Codec.layout_groups w layout
  | Write.Set_physical { table; layout; encodings } ->
      Codec.u8 w 7;
      Codec.str w table;
      Codec.layout_groups w layout;
      Codec.encodings w encodings
  | Write.Create_index { table; iname; kind; attrs } ->
      Codec.u8 w 6;
      Codec.str w table;
      Codec.str w iname;
      Codec.index_kind w kind;
      Codec.list w Codec.str attrs

let decode_op r =
  match Codec.ru8 r with
  | 1 ->
      let table = Codec.rstr r in
      let schema = Codec.rschema r in
      let layout = Codec.rlayout_groups r in
      let encodings = Codec.rencodings r in
      Write.Create_relation { table; schema; layout; encodings }
  | 2 ->
      let table = Codec.rstr r in
      let values = Array.of_list (Codec.rlist r Codec.rvalue) in
      Write.Append { table; values }
  | 3 ->
      let table = Codec.rstr r in
      let rows =
        Array.of_list
          (Codec.rlist r (fun r -> Array.of_list (Codec.rlist r Codec.rvalue)))
      in
      Write.Load { table; rows }
  | 4 ->
      let table = Codec.rstr r in
      let tid = Codec.ri64 r in
      let attr = Codec.ru32 r in
      let value = Codec.rvalue r in
      Write.Update { table; tid; attr; value }
  | 5 ->
      let table = Codec.rstr r in
      let layout = Codec.rlayout_groups r in
      Write.Set_layout { table; layout }
  | 6 ->
      let table = Codec.rstr r in
      let iname = Codec.rstr r in
      let kind = Codec.rindex_kind r in
      let attrs = Codec.rlist r Codec.rstr in
      Write.Create_index { table; iname; kind; attrs }
  | 7 ->
      let table = Codec.rstr r in
      let layout = Codec.rlayout_groups r in
      let encodings = Codec.rencodings r in
      Write.Set_physical { table; layout; encodings }
  | t -> raise (Codec.Truncated (Printf.sprintf "op: unknown tag %d" t))

let encode_into w = function
  | Begin txid ->
      Codec.u8 w 1;
      Codec.i64 w txid
  | Commit txid ->
      Codec.u8 w 2;
      Codec.i64 w txid
  | Abort txid ->
      Codec.u8 w 3;
      Codec.i64 w txid
  | Op { txid; op } ->
      Codec.u8 w 4;
      Codec.i64 w txid;
      encode_op w op
  | Prepare txid ->
      Codec.u8 w 5;
      Codec.i64 w txid

let encode record =
  let w = Codec.writer () in
  encode_into w record;
  Codec.contents w

let decode r =
  match Codec.ru8 r with
  | 1 -> Begin (Codec.ri64 r)
  | 2 -> Commit (Codec.ri64 r)
  | 3 -> Abort (Codec.ri64 r)
  | 4 ->
      let txid = Codec.ri64 r in
      let op = decode_op r in
      Op { txid; op }
  | 5 -> Prepare (Codec.ri64 r)
  | t -> raise (Codec.Truncated (Printf.sprintf "record: unknown tag %d" t))

let decode_string s = decode (Codec.reader (Bytes.unsafe_of_string s))

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  sink : Faultio.sink;
  scratch : Codec.writer;  (* the record being framed *)
  mutable records : int;
  mutable bytes : int;
}

let store_name = "wal"

let m_records =
  Obs.Metrics.counter "mrdb_wal_records_total"
    ~help:"WAL records framed and written"

let m_bytes =
  Obs.Metrics.counter "mrdb_wal_bytes_total"
    ~help:"Framed WAL bytes written (header + payload + checksum)"

let make sink = { sink; scratch = Codec.writer (); records = 0; bytes = 0 }
let create env = make (Faultio.create env store_name)
let append env = make (Faultio.append env store_name)

let write w record =
  let c = w.scratch in
  Codec.reset c;
  let hdr = Codec.frame_open c in
  encode_into c record;
  Codec.frame_close c hdr;
  let n = Codec.length c in
  w.records <- w.records + 1;
  w.bytes <- w.bytes + n;
  Obs.Metrics.incr m_records;
  Obs.Metrics.add m_bytes n;
  Faultio.write_sub w.sink (Codec.unsafe_bytes c) ~pos:0 ~len:n

let flush w = Faultio.flush w.sink
let close w = Faultio.close w.sink

let records_written w = w.records
let bytes_written w = w.bytes

(* ------------------------------------------------------------------ *)
(* Scanning                                                           *)
(* ------------------------------------------------------------------ *)

type scanned = {
  records : record list;  (** every decodable record, in log order *)
  clean : int;
      (** records before the first corruption; replay must not commit
          anything at or beyond this index *)
  clean_bytes : int;
      (** byte length of the clean prefix — appending past this offset is
          unreachable by replay when the log ends in a torn or corrupt
          tail, so writers that settle in-doubt transactions truncate
          here first *)
  warnings : string list;
}

let max_record = 1 lsl 26

let scan env =
  match Faultio.read_all env store_name with
  | None -> { records = []; clean = 0; clean_bytes = 0; warnings = [] }
  | Some buf ->
      let n = Bytes.length buf in
      let records = ref [] in
      let count = ref 0 in
      let clean = ref None in
      let clean_bytes = ref None in
      let warnings = ref [] in
      let warn fmt =
        Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt
      in
      let pos = ref 0 in
      let taint () =
        if !clean = None then begin
          clean := Some !count;
          clean_bytes := Some !pos
        end
      in
      (try
         while !pos < n do
           match Codec.read_frame ~max_len:max_record buf ~pos:!pos with
           | Codec.Short ->
               warn "wal: torn tail (%d trailing bytes discarded)" (n - !pos);
               taint ();
               raise Exit
           | Codec.Overlong len ->
               warn
                 "wal: torn tail at byte %d (record claims %d bytes, %d \
                  remain)"
                 !pos len
                 (n - !pos - Codec.frame_header);
               taint ();
               raise Exit
           | Codec.Corrupt len ->
               warn "wal: checksum mismatch at byte %d — skipping record" !pos;
               taint ();
               pos := !pos + Codec.frame_header + len
           | Codec.Framed len ->
               (match
                  decode
                    (Codec.reader ~pos:(!pos + Codec.frame_header) ~len buf)
                with
               | record ->
                   records := record :: !records;
                   incr count
               | exception Codec.Truncated what ->
                   warn "wal: undecodable record at byte %d (%s) — skipping"
                     !pos what;
                   taint ());
               pos := !pos + Codec.frame_header + len
         done
       with Exit -> ());
      {
        records = List.rev !records;
        clean = (match !clean with Some c -> c | None -> !count);
        clean_bytes = (match !clean_bytes with Some b -> b | None -> !pos);
        warnings = List.rev !warnings;
      }
