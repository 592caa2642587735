type part = {
  attrs : int array;
  offsets : int array; (* per slot in [attrs] *)
  width : int;
  buf : Buffer.t;
}

(* The side region of an encoded column: a simulator-visible buffer of
   [entries] entries of [entry] bytes ([Encoding.side_width]) — dictionary
   values, sparse pairs, runs or FOR exceptions. *)
type side = {
  region : Buffer.t;
  mutable entries : int;
  entry : int;
}

(* Per-attribute dictionary for [Encoding.Dict] columns.  The code→value
   direction lives in the side region (decodes generate traffic); the
   value→code direction is an OCaml hashtable (encoding happens on the
   untraced load path or on single inserts).  Codes are handed out in
   first-insertion order. *)
type dict = {
  side : side;
  mutable values : Value.t array;
  codes : (Value.t, int) Hashtbl.t;
}

(* Sparse (key-value) storage for [Encoding.Sparse] columns: only non-null
   entries exist, as (tid, value) pairs in the side region.  The OCaml-side
   hashtable provides the actual values; the traced region models the
   binary-search access cost of a sorted pair list. *)
type sparse = { side : side; pairs : (int, Value.t) Hashtbl.t }

(* Run-length storage for [Encoding.Rle] columns: the attribute lives as a
   sorted list of (start tid, value) runs.  The OCaml-side arrays provide the
   actual run boundaries and values; the side region models the sorted run
   list — point reads binary-search it, run scans touch one entry per run. *)
type rle = {
  side : side; (* one entry per run *)
  mutable rstarts : int array; (* run start tids, ascending *)
  mutable rvals : Value.t array;
  mutable rtotal : int; (* rows covered so far (owner's append frontier) *)
}

(* Frame-of-reference storage for [Encoding.For_bp] columns: each field holds
   a [fwidth]-byte zigzag offset from the column base (the first non-null
   value stored); the all-ones code is an escape into a side region of
   (tid, value) exception pairs, modeled like the sparse pair list. *)
type forbp = {
  side : side; (* one entry per exception *)
  fwidth : int;
  fescape : int; (* 2^(8*fwidth) - 1, reserved as the exception marker *)
  mutable fbase : int option;
  fex : (int, int) Hashtbl.t;
  mutable fmin : int; (* widen-only bounds over every value ever stored: *)
  mutable fmax : int; (* a superset of the live values, so range pruning
                         in either direction stays sound *)
}

(* How one attribute is stored. *)
type column =
  | Plain
  | Dict of dict
  | Sparse of sparse
  | Rle of rle
  | For of forbp

type t = {
  schema : Schema.t;
  layout : Layout.t;
  cols : column array;
  parts : part array;
  loc : (int * int) array; (* attr -> partition index, offset inside tuple *)
  mutable nrows : int;
  mutable capacity : int;
  arena : Arena.t;
  hier : Memsim.Hierarchy.t option;
  mutable row_base : int; (* first stored row of this (possibly sliced) view *)
  view : bool; (* read-only view over storage owned by another value *)
  parent_base : int; (* window of the parent at view-creation time: *)
  parent_rows : int; (* {!reslice} may move this view anywhere inside it *)
  uniform8 : bool; (* every attr Plain, non-null, 8 bytes wide, and each
                      partition holds a consecutive ascending attr range *)
  tuple_parts : int array; (* partition indices in schema-attr order *)
}

let alone_in_partition layout a =
  Array.length
    (Layout.partition_attrs layout (Layout.partition_of_attr layout a))
  = 1

let side_of = function
  | Plain -> None
  | Dict { side; _ } | Sparse { side; _ } | Rle { side; _ } | For { side; _ } ->
      Some side

(* The stored state of attribute [a] under [enc]; its side region starts
   with room for a few entries and grows with them. *)
let column ?hier arena schema layout a (enc : Encoding.t) =
  let attr = Schema.attr schema a in
  let side slots =
    let entry = Encoding.side_width attr enc in
    { region = Buffer.create arena ?hier (slots * entry); entries = 0; entry }
  in
  if enc = Encoding.Sparse && not attr.Schema.nullable then
    invalid_arg "Relation: sparse encoding requires a nullable attribute";
  if Encoding.outside_partition enc && not (alone_in_partition layout a) then
    invalid_arg
      (Format.asprintf "Relation: a %a attribute must be alone in its partition"
         Encoding.pp enc);
  match enc with
  | Encoding.Plain -> Plain
  | Encoding.Dict ->
      Dict
        {
          side = side 16;
          values = Array.make 16 Value.Null;
          codes = Hashtbl.create 16;
        }
  | Encoding.Sparse -> Sparse { side = side 64; pairs = Hashtbl.create 64 }
  | Encoding.Rle ->
      Rle
        {
          side = side 16;
          rstarts = Array.make 16 0;
          rvals = Array.make 16 Value.Null;
          rtotal = 0;
        }
  | Encoding.For_bp w ->
      if not (Encoding.valid_for_width w) then
        invalid_arg "Relation: for_bp code width must be 1, 2 or 4";
      (match attr.Schema.ty with
      | Value.Int | Value.Date -> ()
      | _ ->
          invalid_arg
            "Relation: for_bp encoding requires an Int or Date attribute");
      For
        {
          side = side 16;
          fwidth = w;
          fescape = (1 lsl (8 * w)) - 1;
          fbase = None;
          fex = Hashtbl.create 16;
          fmin = 0;
          fmax = 0;
        }

(* With [room], each partition is backed by host bytes for twice its
   extent, the extent its next grow takes (see [empty_copy]). *)
let create_with ~room ?hier ?(capacity = 1024) ?(encodings = []) arena schema
    layout =
  let n = Schema.arity schema in
  let enc = Array.make n Encoding.Plain in
  List.iter (fun (a, e) -> enc.(a) <- e) encodings;
  (* Side regions are allocated scheme by scheme (dictionaries, sparse
     lists, run lists, exception lists), each in attribute order, before
     the partitions: arena addresses, and with them the simulated cache
     counters, follow this order. *)
  let rank = function
    | Encoding.Plain -> 0
    | Encoding.Dict -> 1
    | Encoding.Sparse -> 2
    | Encoding.Rle -> 3
    | Encoding.For_bp _ -> 4
  in
  let cols = Array.make n Plain in
  List.init n Fun.id
  |> List.stable_sort (fun a b -> compare (rank enc.(a)) (rank enc.(b)))
  |> List.iter (fun a -> cols.(a) <- column ?hier arena schema layout a enc.(a));
  let loc = Array.make n (-1, -1) in
  let parts =
    Array.mapi
      (fun pi attrs ->
        let offsets = Array.make (Array.length attrs) 0 in
        let width = ref 0 in
        Array.iteri
          (fun slot a ->
            offsets.(slot) <- !width;
            loc.(a) <- (pi, !width);
            width := !width + Encoding.stored_width (Schema.attr schema a) enc.(a))
          attrs;
        let size = max 1 (!width * capacity) in
        let buf =
          Buffer.create arena ?hier ~room:(if room then 2 * size else 0) size
        in
        { attrs; offsets; width = !width; buf })
      (Layout.partitions layout)
  in
  let uniform8 =
    let ok = ref true in
    for a = 0 to n - 1 do
      let attr = Schema.attr schema a in
      (match attr.Schema.ty with
      | Value.Int | Value.Date -> ()
      | _ -> ok := false);
      if attr.Schema.nullable || enc.(a) <> Encoding.Plain then ok := false
    done;
    Array.iter
      (fun p ->
        Array.iteri
          (fun slot a -> if a <> p.attrs.(0) + slot then ok := false)
          p.attrs)
      parts;
    !ok
  in
  let tuple_parts =
    let idx = Array.init (Array.length parts) Fun.id in
    Array.sort
      (fun i j -> compare parts.(i).attrs.(0) parts.(j).attrs.(0))
      idx;
    idx
  in
  {
    schema;
    layout;
    cols;
    parts;
    loc;
    nrows = 0;
    capacity;
    arena;
    hier;
    row_base = 0;
    view = false;
    parent_base = 0;
    parent_rows = 0;
    uniform8;
    tuple_parts;
  }

let create ?hier ?capacity ?encodings arena schema layout =
  create_with ~room:false ?hier ?capacity ?encodings arena schema layout

let out_of_bounds t what ~lo ~len =
  invalid_arg
    (Printf.sprintf "Relation.%s(%s): rows [%d, %d) out of bounds (0 <= lo, \
                     0 <= len, lo+len <= %d rows)"
       what t.schema.Schema.name lo (lo + len) t.nrows)

let with_hier t hier =
  let part p = { p with buf = Buffer.with_hier p.buf hier } in
  let side s = { s with region = Buffer.with_hier s.region hier } in
  let column = function
    | Plain -> Plain
    | Dict d -> Dict { d with side = side d.side }
    | Sparse s -> Sparse { s with side = side s.side }
    | Rle r -> Rle { r with side = side r.side }
    | For f -> For { f with side = side f.side }
  in
  {
    t with
    hier;
    parts = Array.map part t.parts;
    cols = Array.map column t.cols;
    view = true;
    parent_base = t.row_base;
    parent_rows = t.nrows;
  }

let reslice t ~lo ~len =
  if not t.view then invalid_arg "Relation.reslice: not a view";
  if lo < 0 || len < 0 || lo + len > t.parent_rows then
    invalid_arg
      (Printf.sprintf
         "Relation.reslice(%s): rows [%d, %d) out of bounds (parent window \
          holds %d rows)"
         t.schema.Schema.name lo (lo + len) t.parent_rows);
  t.row_base <- t.parent_base + lo;
  t.nrows <- len

let schema t = t.schema
let layout t = t.layout
let nrows t = t.nrows
let hier t = t.hier
let arena t = t.arena

let encoding t a =
  match t.cols.(a) with
  | Plain -> Encoding.Plain
  | Dict _ -> Encoding.Dict
  | Sparse _ -> Encoding.Sparse
  | Rle _ -> Encoding.Rle
  | For f -> Encoding.For_bp f.fwidth

let encodings t =
  List.init (Array.length t.cols) (fun a -> (a, encoding t a))
  |> List.filter (fun (_, e) -> e <> Encoding.Plain)

let side_entries t a =
  match side_of t.cols.(a) with Some s -> s.entries | None -> 0

let storage_bytes t =
  Array.fold_left (fun acc p -> acc + (t.nrows * p.width)) 0 t.parts
  + Array.fold_left
      (fun acc c ->
        match side_of c with Some s -> acc + (s.entries * s.entry) | None -> acc)
      0 t.cols

let ensure_capacity t rows =
  if rows > t.capacity then begin
    let ncap = max rows (2 * t.capacity) in
    Array.iter (fun p -> Buffer.grow p.buf (max 1 (p.width * ncap))) t.parts;
    t.capacity <- ncap
  end

let add_cpu t n =
  match t.hier with Some h -> Memsim.Hierarchy.add_cpu h n | None -> ()

let m_decodes =
  Obs.Metrics.counter "mrdb_compress_decodes_total"
    ~help:"values reconstructed from a compressed representation"

(* Every compressed-value reconstruction funnels through here: it bumps the
   decode counter and, when a profile session is live, attributes the work to
   a "decode" phase of the enclosing operator span. *)
let decoded f =
  Obs.Metrics.incr m_decodes;
  if Obs.Profile.on () then Obs.Profile.phase "decode" f else f ()

(* --- side regions ------------------------------------------------------ *)

(* Write one side entry: a fresh key appends a new entry, an existing one
   rewrites the last entry — the traced cost of a sorted-list insert or
   update. *)
let side_write s ~fresh =
  if fresh then begin
    Buffer.grow s.region ((s.entries + 1) * s.entry);
    s.entries <- s.entries + 1
  end;
  Buffer.touch_write s.region ((s.entries - 1) * s.entry) ~width:s.entry

(* model the binary search over a sorted side region: log2(entries) probes *)
let search_touch t s =
  let steps =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    max 1 (log2 0 (max 2 s.entries))
  in
  let stride = max 1 (s.entries / (steps + 1)) in
  for i = 1 to steps do
    Buffer.touch s.region
      (min (max 0 (s.entries - 1)) (i * stride) * s.entry)
      ~width:s.entry
  done;
  add_cpu t steps

(* dictionary encode: returns the code for [v], registering it if new *)
let encode (d : dict) v =
  match Hashtbl.find_opt d.codes v with
  | Some code -> code
  | None ->
      let code = d.side.entries in
      if code >= Array.length d.values then begin
        let bigger = Array.make (2 * Array.length d.values) Value.Null in
        Array.blit d.values 0 bigger 0 code;
        d.values <- bigger
      end;
      side_write d.side ~fresh:true;
      d.values.(code) <- v;
      Hashtbl.add d.codes v code;
      code

(* decode: one random access into the dictionary region *)
let decode t (d : dict) code =
  decoded (fun () ->
      Buffer.touch d.side.region (code * d.side.entry) ~width:d.side.entry;
      add_cpu t 1;
      d.values.(code))

(* A NULL over a present pair removes it and its entry, so the side region
   holds one entry per non-NULL value. *)
let sparse_write (s : sparse) tid v =
  if Value.is_null v then begin
    if Hashtbl.mem s.pairs tid then begin
      Hashtbl.remove s.pairs tid;
      s.side.entries <- s.side.entries - 1
    end
  end
  else begin
    side_write s.side ~fresh:(not (Hashtbl.mem s.pairs tid));
    Hashtbl.replace s.pairs tid v
  end

let sparse_read t (s : sparse) tid =
  decoded (fun () ->
      search_touch t s.side;
      match Hashtbl.find_opt s.pairs tid with Some v -> v | None -> Value.Null)

(* --- run-length storage --------------------------------------------- *)

(* largest k with rstarts.(k) <= tid; requires a run *)
let rle_find (r : rle) tid =
  let lo = ref 0 and hi = ref (r.side.entries - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if r.rstarts.(mid) <= tid then lo := mid else hi := mid - 1
  done;
  !lo

let rle_run_end (r : rle) k =
  if k + 1 < r.side.entries then r.rstarts.(k + 1) else r.rtotal

(* append at the frontier: extend the last run or open a new one *)
let rle_append (r : rle) ~tid v =
  let k = r.side.entries in
  let extend = k > 0 && Value.equal r.rvals.(k - 1) v in
  side_write r.side ~fresh:(not extend);
  if not extend then begin
    if k >= Array.length r.rstarts then begin
      let n = 2 * Array.length r.rstarts in
      let ns = Array.make n 0 and nv = Array.make n Value.Null in
      Array.blit r.rstarts 0 ns 0 k;
      Array.blit r.rvals 0 nv 0 k;
      r.rstarts <- ns;
      r.rvals <- nv
    end;
    r.rstarts.(k) <- tid;
    r.rvals.(k) <- v
  end;
  r.rtotal <- tid + 1

(* in-place update: replace run k by up to three segments and collapse equal
   neighbours — O(runs), modeled as a binary search plus a shifted rewrite of
   the run-list tail *)
let rle_set t (r : rle) ~tid v =
  let side = r.side in
  search_touch t side;
  let k = rle_find r tid in
  if Value.equal r.rvals.(k) v then
    Buffer.touch_write side.region (k * side.entry) ~width:side.entry
  else begin
    let s = r.rstarts.(k) and e = rle_run_end r k and old = r.rvals.(k) in
    let starts = Array.make (side.entries + 2) 0 in
    let vals = Array.make (side.entries + 2) Value.Null in
    let m = ref 0 in
    let emit start value =
      if !m > 0 && Value.equal vals.(!m - 1) value then ()
      else begin
        starts.(!m) <- start;
        vals.(!m) <- value;
        incr m
      end
    in
    for i = 0 to k - 1 do
      emit r.rstarts.(i) r.rvals.(i)
    done;
    if s < tid then emit s old;
    emit tid v;
    if tid + 1 < e then emit (tid + 1) old;
    for i = k + 1 to side.entries - 1 do
      emit r.rstarts.(i) r.rvals.(i)
    done;
    Buffer.grow side.region (!m * side.entry);
    Buffer.touch_write_run side.region (k * side.entry) ~width:side.entry
      ~count:(max 1 (!m - k))
      ~stride:side.entry;
    r.rstarts <- starts;
    r.rvals <- vals;
    side.entries <- !m
  end

let rle_write t (r : rle) ~tid v =
  if tid = r.rtotal then rle_append r ~tid v else rle_set t r ~tid v

let rle_read t (r : rle) tid =
  decoded (fun () ->
      search_touch t r.side;
      add_cpu t 1;
      r.rvals.(rle_find r tid))

(* --- frame-of-reference storage ------------------------------------- *)

let for_drop_ex (f : forbp) tid =
  if Hashtbl.mem f.fex tid then begin
    Hashtbl.remove f.fex tid;
    f.side.entries <- f.side.entries - 1
  end

(* zigzag offset from the base, or None when the value must spill to the
   exception list.  The subtractions can wrap when the true distance exceeds
   the int range; the sign/bound checks reject those cases with the rest. *)
let for_code f x =
  match f.fbase with
  | None -> None
  | Some base ->
      if x >= base then
        let d = x - base in
        if d >= 0 && d <= (f.fescape - 1) / 2 then Some (2 * d) else None
      else
        let m = base - x in
        if m >= 1 && m <= (f.fescape - 1) / 2 then Some ((2 * m) - 1) else None

let for_decode f z =
  let base = match f.fbase with Some b -> b | None -> 0 in
  if z land 1 = 0 then base + (z asr 1) else base - ((z + 1) asr 1)

let for_write (f : forbp) p ~tid ~off ~nullable v =
  if Value.is_null v then begin
    if not nullable then
      invalid_arg "Relation: NULL into non-nullable attribute";
    Buffer.write_byte p.buf off 0;
    for_drop_ex f tid
  end
  else begin
    if nullable then Buffer.write_byte p.buf off 1;
    let data_off = if nullable then off + 1 else off in
    let x = Value.to_int v in
    (match f.fbase with
    | None ->
        f.fbase <- Some x;
        f.fmin <- x;
        f.fmax <- x
    | Some _ ->
        if x < f.fmin then f.fmin <- x;
        if x > f.fmax then f.fmax <- x);
    match for_code f x with
    | Some z ->
        for_drop_ex f tid;
        Buffer.write_uint p.buf data_off ~width:f.fwidth z
    | None ->
        side_write f.side ~fresh:(not (Hashtbl.mem f.fex tid));
        Hashtbl.replace f.fex tid x;
        Buffer.write_uint p.buf data_off ~width:f.fwidth f.fescape
  end

(* The value behind code [z] of stored row [tid]: an escape resolves
   through the traced exception list, any other code is one cycle of
   arithmetic. *)
let for_value t (f : forbp) ~tid z =
  if z = f.fescape then begin
    search_touch t f.side;
    Hashtbl.find f.fex tid
  end
  else begin
    add_cpu t 1;
    for_decode f z
  end

let box_int (ty : Value.ty) x =
  match ty with Value.Date -> Value.VDate x | _ -> Value.VInt x

let for_read t (f : forbp) p ~tid ~off ~ty ~nullable =
  if nullable && Buffer.read_byte p.buf off = 0 then Value.Null
  else begin
    let data_off = if nullable then off + 1 else off in
    let z = Buffer.read_uint p.buf data_off ~width:f.fwidth in
    decoded (fun () -> box_int ty (for_value t f ~tid z))
  end

(* The field readers and writers take an attribute's type and
   nullability from its schema record field by field: a tuple of the two
   would be allocated at every access. *)
let write_field t p ~tid ~off a v =
  let attr = Schema.attr t.schema a in
  let ty = attr.Schema.ty and nullable = attr.Schema.nullable in
  match t.cols.(a) with
  | Sparse s -> sparse_write s tid v
  | Rle r -> rle_write t r ~tid v
  | For f -> for_write f p ~tid ~off ~nullable v
  | Dict d ->
      let data_off = if nullable then off + 1 else off in
      if Value.is_null v then
        if nullable then Buffer.write_byte p.buf off 0
        else invalid_arg "Relation: NULL into non-nullable attribute"
      else begin
        if nullable then Buffer.write_byte p.buf off 1;
        Buffer.write_int32 p.buf data_off (encode d v)
      end
  | Plain -> Buffer.write_value p.buf off ~ty ~nullable v

(* Why [write_field] would refuse [v], without writing or allocating:
   sparse and RLE fields store any value, dictionary fields any non-NULL
   one, and the rest convert by type, where only a string into a number and
   a non-string into a varchar fail. *)
let rejects t a v =
  let attr = Schema.attr t.schema a in
  match (t.cols.(a), (v : Value.t), attr.Schema.ty) with
  | (Sparse _ | Rle _), _, _ -> None
  | _, Value.Null, _ ->
      if attr.Schema.nullable then None
      else Some "NULL into non-nullable attribute"
  | Dict _, _, _ -> None
  | _, Value.VStr _, Value.Varchar _ -> None
  | _, Value.VStr _, _ -> Some "string into a numeric attribute"
  | _, _, Value.Varchar _ -> Some "non-string into a varchar attribute"
  | _ -> None

let read_field t p ~tid ~off a =
  let attr = Schema.attr t.schema a in
  let ty = attr.Schema.ty and nullable = attr.Schema.nullable in
  match t.cols.(a) with
  | Sparse s -> sparse_read t s tid
  | Rle r -> rle_read t r tid
  | For f -> for_read t f p ~tid ~off ~ty ~nullable
  | Dict d ->
      let data_off = if nullable then off + 1 else off in
      if nullable && Buffer.read_byte p.buf off = 0 then Value.Null
      else decode t d (Buffer.read_int32 p.buf data_off)
  | Plain -> Buffer.read_value p.buf off ~ty ~nullable

let append t values =
  if t.view then invalid_arg "Relation.append: relation is a read-only view";
  if Array.length values <> Schema.arity t.schema then
    invalid_arg "Relation.append: arity mismatch";
  ensure_capacity t (t.nrows + 1);
  let tid = t.nrows in
  (* loops, not [Array.iter] closures, which each row would allocate *)
  for pi = 0 to Array.length t.parts - 1 do
    let p = t.parts.(pi) in
    for slot = 0 to Array.length p.attrs - 1 do
      let a = p.attrs.(slot) in
      write_field t p ~tid
        ~off:((tid * p.width) + p.offsets.(slot))
        a values.(a)
    done
  done;
  t.nrows <- tid + 1;
  tid

let check_tid t what tid =
  if tid < 0 || tid >= t.nrows then
    invalid_arg
      (Printf.sprintf "Relation.%s(%s): tuple %d out of bounds (%d rows)"
         what t.schema.Schema.name tid t.nrows)

let get t tid a =
  check_tid t "get" tid;
  let tid = t.row_base + tid in
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  read_field t p ~tid ~off:((tid * p.width) + off) a

(* [get t tid a] with the partition, offset, type and encoding fixed once;
   [row_base] is read per call, since [reslice] moves it. *)
let value_reader t a =
  match t.cols.(a) with
  | Plain ->
      let pi, off = t.loc.(a) in
      let p = t.parts.(pi) in
      let width = p.width in
      let attr = Schema.attr t.schema a in
      let read =
        Buffer.value_reader p.buf ~ty:attr.Schema.ty
          ~nullable:attr.Schema.nullable
      in
      fun tid ->
        check_tid t "get" tid;
        read (((t.row_base + tid) * width) + off)
  | Dict _ | Sparse _ | Rle _ | For _ -> fun tid -> get t tid a

let int_reader t a =
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  let width = p.width in
  fun tid ->
    check_tid t "get" tid;
    Buffer.read_int p.buf (((t.row_base + tid) * width) + off)

(* The traced accesses of [value_reader t a tid] without the value: the
   null byte, then the payload if the byte says it is there. *)
let touch_reader t a =
  match t.cols.(a) with
  | Plain ->
      let pi, off = t.loc.(a) in
      let p = t.parts.(pi) in
      let width = p.width in
      let attr = Schema.attr t.schema a in
      let data = Value.data_width attr.Schema.ty in
      if attr.Schema.nullable then (fun tid ->
        check_tid t "get" tid;
        let o = ((t.row_base + tid) * width) + off in
        if Buffer.read_byte p.buf o <> 0 then
          Buffer.touch p.buf (o + 1) ~width:data)
      else fun tid ->
        check_tid t "get" tid;
        Buffer.touch p.buf (((t.row_base + tid) * width) + off) ~width:data
  | Dict _ | Sparse _ | Rle _ | For _ -> fun tid -> ignore (get t tid a)

let set t tid a v =
  check_tid t "set" tid;
  let tid = t.row_base + tid in
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  write_field t p ~tid ~off:((tid * p.width) + off) a v

let get_tuple t tid =
  check_tid t "get_tuple" tid;
  if t.uniform8 then begin
    (* All fields are plain non-null 8-byte values and each partition holds a
       consecutive attr range, so the per-attr access sequence of the generic
       path is, partition by partition, one contiguous 8-byte-stride run —
       trace it as such (identical order, identical counters) and serve the
       payloads untraced. *)
    let tid = t.row_base + tid in
    let out = Array.make (Schema.arity t.schema) Value.Null in
    Array.iter
      (fun pi ->
        let p = t.parts.(pi) in
        let n = Array.length p.attrs in
        let base_off = tid * p.width in
        Buffer.touch_run p.buf base_off ~width:8 ~count:n ~stride:8;
        for slot = 0 to n - 1 do
          let a = p.attrs.(slot) in
          let v = Buffer.untraced_read_int p.buf (base_off + p.offsets.(slot)) in
          out.(a) <-
            (match (Schema.attr t.schema a).Schema.ty with
            | Value.Date -> Value.VDate v
            | _ -> Value.VInt v)
        done)
      t.tuple_parts;
    out
  end
  else Array.init (Schema.arity t.schema) (fun a -> get t tid a)

let run_readable t a =
  (match t.cols.(a) with Plain -> true | _ -> false)
  && not (Schema.attr t.schema a).Schema.nullable

let int_run_readable t a =
  run_readable t a
  &&
  match (Schema.attr t.schema a).Schema.ty with
  | Value.Int | Value.Date -> true
  | _ -> false

let read_int_run t ~lo ~count a dst =
  if lo < 0 || count < 0 || lo + count > t.nrows then
    out_of_bounds t "read_int_run" ~lo ~len:count;
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  Buffer.read_int_run p.buf
    (((t.row_base + lo) * p.width) + off)
    ~stride:p.width ~count dst

let read_value_run t ~lo ~count a dst =
  if lo < 0 || count < 0 || lo + count > t.nrows then
    out_of_bounds t "read_value_run" ~lo ~len:count;
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  let ty = (Schema.attr t.schema a).Schema.ty in
  Buffer.read_value_run p.buf
    (((t.row_base + lo) * p.width) + off)
    ~stride:p.width ~ty ~count dst

(* --- predicates on the stored representation ----------------------------- *)

type verdict = All | Nothing | Scan

(* Every run of [r] over this view's rows, ascending and view-relative: one
   binary search locates the first, then one run-entry touch per run. *)
let rle_runs t (r : rle) f =
  let n = t.nrows in
  if n > 0 then begin
    let abs_lo = t.row_base and abs_hi = t.row_base + n in
    let side = r.side in
    search_touch t side;
    let k = ref (rle_find r abs_lo) in
    while !k < side.entries && r.rstarts.(!k) < abs_hi do
      let s = max r.rstarts.(!k) abs_lo in
      let e = min (rle_run_end r !k) abs_hi in
      Buffer.touch side.region (!k * side.entry) ~width:side.entry;
      add_cpu t 1;
      if e > s then f ~lo:(s - t.row_base) ~len:(e - s) r.rvals.(!k);
      incr k
    done
  end

let runs t a = match t.cols.(a) with Rle r -> Some (rle_runs t r) | _ -> None

(* The verdict of every dictionary code: one traced sequential pass over
   the dictionary, then [test] and one [charge] per distinct value. *)
let dict_pass (d : dict) ~test ~charge =
  let side = d.side in
  if side.entries > 0 then
    Buffer.touch_run side.region 0 ~width:side.entry ~count:side.entries
      ~stride:side.entry;
  Array.init side.entries (fun code ->
      charge 1;
      test d.values.(code))

(* The stored code of a Dict or For_bp attribute at [tid]: its field is
   [width] bytes, with no null byte in front (the attribute is
   non-nullable). *)
let read_code t a ~width tid =
  check_tid t "point_test" tid;
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  Buffer.read_uint p.buf (((t.row_base + tid) * p.width) + off) ~width

let scan_block = 1024

(* Emit the maximal ranges of this view's rows whose code [keep] accepts,
   reading the codes in [scan_block]-row runs: one traced run and one
   [charge] per code. *)
let code_scan t a ~width ~charge keep emit =
  let n = t.nrows in
  let codes = Array.make scan_block 0 in
  let rs = ref (-1) in
  let flush hi =
    if !rs >= 0 then begin
      emit ~lo:!rs ~len:(hi - !rs) None;
      rs := -1
    end
  in
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  let lo = ref 0 in
  while !lo < n do
    let m = min scan_block (n - !lo) in
    Buffer.read_uint_run p.buf
      (((t.row_base + !lo) * p.width) + off)
      ~width ~stride:p.width ~count:m codes;
    charge m;
    for i = 0 to m - 1 do
      let tid = !lo + i in
      if keep (Array.unsafe_get codes i) tid then begin
        if !rs < 0 then rs := tid
      end
      else flush tid
    done;
    lo := !lo + m
  done;
  flush n

(* [for_value] of a view-relative row, counted as a decode. *)
let for_tid_value t f ~tid z =
  Obs.Metrics.incr m_decodes;
  for_value t f ~tid:(t.row_base + tid) z

let filter_scan t a ~test ~bounds ~charge =
  let attr = Schema.attr t.schema a in
  match t.cols.(a) with
  | Rle r ->
      (* [test] once per run; a passing run is one range with its value *)
      Some
        (fun emit ->
          rle_runs t r (fun ~lo ~len v ->
              charge 1;
              if test v then emit ~lo ~len (Some v)))
  | Dict d when not attr.Schema.nullable ->
      Some
        (fun emit ->
          let pass = dict_pass d ~test ~charge in
          code_scan t a ~width:Encoding.code_width ~charge
            (fun z _ -> Array.unsafe_get pass z)
            emit)
  | For f when not attr.Schema.nullable ->
      (* the bounds are widen-only, a superset of the live values, so
         either pruning verdict is sound *)
      let verdict =
        match f.fbase with
        | Some _ -> bounds ~min:f.fmin ~max:f.fmax
        | None -> Scan
      in
      Some
        (fun emit ->
          let n = t.nrows in
          charge 1;
          match verdict with
          | All -> if n > 0 then emit ~lo:0 ~len:n None
          | Nothing -> ()
          | Scan ->
              code_scan t a ~width:f.fwidth ~charge
                (fun z tid ->
                  test (box_int attr.Schema.ty (for_tid_value t f ~tid z)))
                emit)
  | Plain | Sparse _ | Dict _ | For _ -> None

let point_test t a ~test ~charge =
  let attr = Schema.attr t.schema a in
  match t.cols.(a) with
  | Dict d when not attr.Schema.nullable ->
      (* the verdicts are taken on the first test *)
      let pass = lazy (dict_pass d ~test ~charge) in
      Some
        (fun tid ->
          let z = read_code t a ~width:Encoding.code_width tid in
          (Lazy.force pass).(z))
  | For f when not attr.Schema.nullable ->
      Some
        (fun tid ->
          let z = read_code t a ~width:f.fwidth tid in
          test (box_int attr.Schema.ty (for_tid_value t f ~tid z)))
  | Plain | Sparse _ | Rle _ | Dict _ | For _ -> None

let field_width t a =
  Encoding.stored_width (Schema.attr t.schema a) (encoding t a)

let part_of_attr t a = fst t.loc.(a)
let n_parts t = Array.length t.parts
let part_row_offset t pi = t.row_base * t.parts.(pi).width
let part_width t pi = t.parts.(pi).width
let part_buffer t pi = t.parts.(pi).buf
let attr_offset t a = snd t.loc.(a)

(* Sparse and RLE attributes must be alone in their partition; when a layout
   change groups them with others they deterministically fall back to plain
   (live repartitions and WAL replay must agree on this). *)
let sanitize_encodings layout encs =
  List.filter
    (fun (a, e) ->
      (not (Encoding.outside_partition e)) || alone_in_partition layout a)
    encs

let copy_into t dst =
  Memsim.Hierarchy.untraced t.hier (fun () ->
      for tid = 0 to t.nrows - 1 do
        ignore (append dst (get_tuple t tid))
      done)

(* An empty relation sized for exactly [t]'s rows, the target of a layout
   or encoding change.  When [t] has grown by appends since it was built, it
   will likely be appended to again: the copy's partitions then get host
   room for the extent their next grow takes, so that grow moves no bytes.
   The simulated extents, and with them every arena address, are the same
   either way. *)
let empty_copy t layout encodings =
  create_with ~room:(t.capacity > t.nrows) ?hier:t.hier
    ~capacity:(max 1 t.nrows)
    ~encodings:(sanitize_encodings layout encodings)
    t.arena t.schema layout

let recompress t ?layout encodings =
  let layout = match layout with Some l -> l | None -> t.layout in
  let dst = empty_copy t layout encodings in
  copy_into t dst;
  dst

let repartition t layout =
  let dst = empty_copy t layout (encodings t) in
  let all_plain =
    Array.for_all (function Plain -> true | _ -> false) t.cols
  in
  if all_plain then begin
    (* Plain fields have the same stored bytes under any partitioning, so a
       repartition is pure byte movement: copy each attribute's column of
       fixed-width fields directly instead of boxing every value through
       get_tuple/append.  (Dict and Sparse columns keep OCaml-side state and
       take the generic path.) *)
    ensure_capacity dst t.nrows;
    let fw = field_width t in
    Array.iter
      (fun dp ->
        (* copy maximal attr groups that are contiguous in both the source
           and the destination partition as one strided field run *)
        let na = Array.length dp.attrs in
        let i = ref 0 in
        while !i < na do
          let a0 = dp.attrs.(!i) in
          let spi, soff0 = t.loc.(a0) in
          let doff0 = snd dst.loc.(a0) in
          let wsum = ref (fw a0) in
          let j = ref (!i + 1) in
          let grow = ref true in
          while !grow && !j < na do
            let a = dp.attrs.(!j) in
            let spi', soff' = t.loc.(a) in
            if
              spi' = spi
              && soff' = soff0 + !wsum
              && snd dst.loc.(a) = doff0 + !wsum
            then begin
              wsum := !wsum + fw a;
              incr j
            end
            else grow := false
          done;
          let sp = t.parts.(spi) in
          Buffer.copy_run ~src:sp.buf
            ~src_off:((t.row_base * sp.width) + soff0)
            ~src_stride:sp.width ~dst:dp.buf ~dst_off:doff0
            ~dst_stride:dp.width ~width:!wsum ~count:t.nrows;
          i := !j
        done)
      dst.parts;
    dst.nrows <- t.nrows
  end
  else copy_into t dst;
  dst

let load t ~n f =
  if t.view then invalid_arg "Relation.load: relation is a read-only view";
  Memsim.Hierarchy.untraced t.hier (fun () ->
      ensure_capacity t (t.nrows + n);
      if t.uniform8 then
        (* every field is a plain non-nullable 8-byte int/date: store the
           payloads directly instead of dispatching [append]'s per-field
           write (loads run untraced, so the simulator sees nothing either
           way) *)
        let arity = Schema.arity t.schema in
        for row = 0 to n - 1 do
          let values = f ~row in
          if Array.length values <> arity then
            invalid_arg "Relation.load: arity mismatch";
          let tid = t.nrows in
          Array.iter
            (fun p ->
              let base = tid * p.width in
              Array.iteri
                (fun slot a ->
                  Buffer.untraced_write_int p.buf
                    (base + Array.unsafe_get p.offsets slot)
                    (Value.to_int (Array.unsafe_get values a)))
                p.attrs)
            t.parts;
          t.nrows <- tid + 1
        done
      else
        for row = 0 to n - 1 do
          ignore (append t (f ~row))
        done)

(* Unboxed bulk load for all-plain-int relations: the generator fills a
   reusable int array, so wide synthetic tables (microbench: 200k x 16)
   skip 16 [Value.t] boxes and a fresh array per row. *)
let load_int_rows t ~n f =
  if t.view then
    invalid_arg "Relation.load_int_rows: relation is a read-only view";
  if not t.uniform8 then
    invalid_arg "Relation.load_int_rows: not an all-plain-int relation";
  Memsim.Hierarchy.untraced t.hier (fun () ->
      ensure_capacity t (t.nrows + n);
      let dst = Array.make (Schema.arity t.schema) 0 in
      for row = 0 to n - 1 do
        f ~row dst;
        let tid = t.nrows in
        Array.iter
          (fun p ->
            let base = tid * p.width in
            Array.iteri
              (fun slot a ->
                Buffer.untraced_write_int p.buf
                  (base + Array.unsafe_get p.offsets slot)
                  (Array.unsafe_get dst a))
              p.attrs)
          t.parts;
        t.nrows <- tid + 1
      done)
