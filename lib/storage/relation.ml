type part = {
  attrs : int array;
  offsets : int array; (* per slot in [attrs] *)
  width : int;
  buf : Buffer.t;
}

(* Per-attribute dictionary for [Encoding.Dict] columns.  The code→value
   direction lives in a simulator-visible region (decodes generate traffic);
   the value→code direction is an OCaml hashtable (encoding happens on the
   untraced load path or on single inserts). *)
type dict = {
  mutable values : Value.t array;
  mutable count : int;
  codes : (Value.t, int) Hashtbl.t;
  dbuf : Buffer.t;
  value_width : int;
}

(* Sparse (key-value) storage for [Encoding.Sparse] columns: only non-null
   entries exist, as (tid, value) pairs in a simulator-visible region.  The
   OCaml-side hashtable provides the actual values; the traced region models
   the binary-search access cost of a sorted pair list. *)
type sparse = {
  pairs : (int, Value.t) Hashtbl.t;
  sbuf : Buffer.t;
  entry_width : int;
  mutable filled : int;
}

(* Run-length storage for [Encoding.Rle] columns: the attribute lives as a
   sorted list of (start tid, value) runs.  The OCaml-side arrays provide the
   actual run boundaries and values; the traced region models the sorted run
   list — point reads binary-search it, run scans touch one entry per run. *)
type rle = {
  mutable rstarts : int array; (* run start tids, ascending *)
  mutable rvals : Value.t array;
  mutable rcount : int;
  mutable rtotal : int; (* rows covered so far (owner's append frontier) *)
  rbuf : Buffer.t;
  rentry_width : int; (* 8-byte start + value payload *)
}

(* Frame-of-reference storage for [Encoding.For_bp] columns: each field holds
   a [fwidth]-byte zigzag offset from the column base (the first non-null
   value stored); the all-ones code is an escape into an exception list of
   (tid, value) pairs, modeled like the sparse pair list. *)
type forbp = {
  fwidth : int;
  fescape : int; (* 2^(8*fwidth) - 1, reserved as the exception marker *)
  mutable fbase : int option;
  fex : (int, int) Hashtbl.t;
  fxbuf : Buffer.t;
  mutable fex_count : int;
  mutable fmin : int; (* widen-only bounds over every value ever stored: *)
  mutable fmax : int; (* a superset of the live values, so range pruning
                         in either direction stays sound *)
}

type t = {
  schema : Schema.t;
  layout : Layout.t;
  encodings : Encoding.t array;
  dicts : dict option array;
  sparses : sparse option array;
  rles : rle option array;
  fors : forbp option array;
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

let create ?hier ?(capacity = 1024) ?(encodings = []) arena schema layout =
  let n = Schema.arity schema in
  let enc = Array.make n Encoding.Plain in
  List.iter (fun (a, e) -> enc.(a) <- e) encodings;
  let dicts =
    Array.init n (fun a ->
        match enc.(a) with
        | Encoding.Dict ->
            let value_width = Value.data_width (Schema.attr schema a).Schema.ty in
            Some
              {
                values = Array.make 16 Value.Null;
                count = 0;
                codes = Hashtbl.create 16;
                dbuf = Buffer.create arena ?hier (16 * value_width);
                value_width;
              }
        | _ -> None)
  in
  let sparses =
    Array.init n (fun a ->
        match enc.(a) with
        | Encoding.Sparse ->
            let attr = Schema.attr schema a in
            if not attr.Schema.nullable then
              invalid_arg "Relation: sparse encoding requires a nullable attribute";
            if not (alone_in_partition layout a) then
              invalid_arg
                "Relation: a sparse attribute must be alone in its partition";
            let entry_width = 8 + Value.data_width attr.Schema.ty in
            Some
              {
                pairs = Hashtbl.create 64;
                sbuf = Buffer.create arena ?hier (64 * entry_width);
                entry_width;
                filled = 0;
              }
        | _ -> None)
  in
  let rles =
    Array.init n (fun a ->
        match enc.(a) with
        | Encoding.Rle ->
            if not (alone_in_partition layout a) then
              invalid_arg
                "Relation: an RLE attribute must be alone in its partition";
            let rentry_width =
              8 + Value.data_width (Schema.attr schema a).Schema.ty
            in
            Some
              {
                rstarts = Array.make 16 0;
                rvals = Array.make 16 Value.Null;
                rcount = 0;
                rtotal = 0;
                rbuf = Buffer.create arena ?hier (16 * rentry_width);
                rentry_width;
              }
        | _ -> None)
  in
  let fors =
    Array.init n (fun a ->
        match enc.(a) with
        | Encoding.For_bp w ->
            if not (Encoding.valid_for_width w) then
              invalid_arg "Relation: for_bp code width must be 1, 2 or 4";
            (match (Schema.attr schema a).Schema.ty with
            | Value.Int | Value.Date -> ()
            | _ ->
                invalid_arg
                  "Relation: for_bp encoding requires an Int or Date attribute");
            Some
              {
                fwidth = w;
                fescape = (1 lsl (8 * w)) - 1;
                fbase = None;
                fex = Hashtbl.create 16;
                fxbuf = Buffer.create arena ?hier (16 * 16);
                fex_count = 0;
                fmin = 0;
                fmax = 0;
              }
        | _ -> None)
  in
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
        let buf = Buffer.create arena ?hier (max 1 (!width * capacity)) in
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
    encodings = enc;
    dicts;
    sparses;
    rles;
    fors;
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

let out_of_bounds t what ~lo ~len =
  invalid_arg
    (Printf.sprintf "Relation.%s(%s): rows [%d, %d) out of bounds (0 <= lo, \
                     0 <= len, lo+len <= %d rows)"
       what t.schema.Schema.name lo (lo + len) t.nrows)

let slice t ~lo ~len =
  if lo < 0 || len < 0 || lo + len > t.nrows then out_of_bounds t "slice" ~lo ~len;
  {
    t with
    row_base = t.row_base + lo;
    nrows = len;
    view = true;
    parent_base = t.row_base;
    parent_rows = t.nrows;
  }

let with_hier t hier =
  let part p = { p with buf = Buffer.with_hier p.buf hier } in
  let dict d = { d with dbuf = Buffer.with_hier d.dbuf hier } in
  let sparse s = { s with sbuf = Buffer.with_hier s.sbuf hier } in
  let rle r = { r with rbuf = Buffer.with_hier r.rbuf hier } in
  let forbp f = { f with fxbuf = Buffer.with_hier f.fxbuf hier } in
  {
    t with
    hier;
    parts = Array.map part t.parts;
    dicts = Array.map (Option.map dict) t.dicts;
    sparses = Array.map (Option.map sparse) t.sparses;
    rles = Array.map (Option.map rle) t.rles;
    fors = Array.map (Option.map forbp) t.fors;
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

let encoding t a = t.encodings.(a)

let encodings t =
  Array.to_list t.encodings
  |> List.mapi (fun a e -> (a, e))
  |> List.filter (fun (_, e) -> e <> Encoding.Plain)

let dict_info t a =
  match t.dicts.(a) with
  | Some d -> Some (max 1 d.count, d.value_width)
  | None -> None

let sparse_info t a =
  match t.sparses.(a) with
  | Some s -> Some (max 1 s.filled, s.entry_width)
  | None -> None

let rle_info t a =
  match t.rles.(a) with
  | Some r -> Some (max 1 r.rcount, r.rentry_width)
  | None -> None

let for_info t a =
  match t.fors.(a) with
  | Some f -> Some (f.fex_count, f.fwidth)
  | None -> None

let for_bounds t a =
  match t.fors.(a) with
  | Some { fbase = Some _; fmin; fmax; _ } -> Some (fmin, fmax)
  | _ -> None

let storage_bytes t =
  let parts =
    Array.fold_left (fun acc p -> acc + (t.nrows * p.width)) 0 t.parts
  in
  let dicts =
    Array.fold_left
      (fun acc d ->
        match d with Some d -> acc + (d.count * d.value_width) | None -> acc)
      0 t.dicts
  in
  let sparses =
    Array.fold_left
      (fun acc s ->
        match s with Some s -> acc + (s.filled * s.entry_width) | None -> acc)
      0 t.sparses
  in
  let rles =
    Array.fold_left
      (fun acc r ->
        match r with Some r -> acc + (r.rcount * r.rentry_width) | None -> acc)
      0 t.rles
  in
  let fors =
    Array.fold_left
      (fun acc f -> match f with Some f -> acc + (f.fex_count * 16) | None -> acc)
      0 t.fors
  in
  parts + dicts + sparses + rles + fors

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

(* dictionary encode: returns the code for [v], registering it if new *)
let encode t d v =
  match Hashtbl.find_opt d.codes v with
  | Some code -> code
  | None ->
      let code = d.count in
      if code >= Array.length d.values then begin
        let bigger = Array.make (2 * Array.length d.values) Value.Null in
        Array.blit d.values 0 bigger 0 code;
        d.values <- bigger
      end;
      Buffer.grow d.dbuf ((code + 1) * d.value_width);
      (* write the new dictionary entry (traced) *)
      Buffer.touch_write d.dbuf (code * d.value_width) ~width:d.value_width;
      d.values.(code) <- v;
      Hashtbl.add d.codes v code;
      d.count <- code + 1;
      ignore t;
      code

(* decode: one random access into the dictionary region *)
let decode t d code =
  decoded (fun () ->
      Buffer.touch d.dbuf (code * d.value_width) ~width:d.value_width;
      add_cpu t 1;
      d.values.(code))

(* model the binary search over the sorted pair list: log2(filled) probes *)
let sparse_search_touch t s =
  let steps =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    max 1 (log2 0 (max 2 s.filled))
  in
  let stride = max 1 (s.filled / (steps + 1)) in
  for i = 1 to steps do
    Buffer.touch s.sbuf
      (min (max 0 (s.filled - 1)) (i * stride) * s.entry_width)
      ~width:s.entry_width
  done;
  add_cpu t steps

let sparse_write s tid v =
  if Value.is_null v then Hashtbl.remove s.pairs tid
  else begin
    if not (Hashtbl.mem s.pairs tid) then begin
      Buffer.grow s.sbuf ((s.filled + 1) * s.entry_width);
      s.filled <- s.filled + 1
    end;
    Buffer.touch_write s.sbuf
      ((s.filled - 1) * s.entry_width)
      ~width:s.entry_width;
    Hashtbl.replace s.pairs tid v
  end

let sparse_read t s tid =
  decoded (fun () ->
      sparse_search_touch t s;
      match Hashtbl.find_opt s.pairs tid with Some v -> v | None -> Value.Null)

(* --- run-length storage --------------------------------------------- *)

(* largest k with rstarts.(k) <= tid; requires rcount > 0 *)
let rle_find r tid =
  let lo = ref 0 and hi = ref (r.rcount - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if r.rstarts.(mid) <= tid then lo := mid else hi := mid - 1
  done;
  !lo

let rle_run_end r k = if k + 1 < r.rcount then r.rstarts.(k + 1) else r.rtotal

(* model the binary search over the sorted run list: log2(rcount) probes *)
let rle_search_touch t r =
  let steps =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    max 1 (log2 0 (max 2 r.rcount))
  in
  let stride = max 1 (r.rcount / (steps + 1)) in
  for i = 1 to steps do
    Buffer.touch r.rbuf
      (min (max 0 (r.rcount - 1)) (i * stride) * r.rentry_width)
      ~width:r.rentry_width
  done;
  add_cpu t steps

let rle_push r ~start v =
  if r.rcount >= Array.length r.rstarts then begin
    let n = 2 * Array.length r.rstarts in
    let ns = Array.make n 0 and nv = Array.make n Value.Null in
    Array.blit r.rstarts 0 ns 0 r.rcount;
    Array.blit r.rvals 0 nv 0 r.rcount;
    r.rstarts <- ns;
    r.rvals <- nv
  end;
  r.rstarts.(r.rcount) <- start;
  r.rvals.(r.rcount) <- v;
  r.rcount <- r.rcount + 1

(* append at the frontier: extend the last run or open a new one *)
let rle_append r ~tid v =
  if r.rcount > 0 && Value.equal r.rvals.(r.rcount - 1) v then
    Buffer.touch_write r.rbuf
      ((r.rcount - 1) * r.rentry_width)
      ~width:r.rentry_width
  else begin
    Buffer.grow r.rbuf ((r.rcount + 1) * r.rentry_width);
    Buffer.touch_write r.rbuf (r.rcount * r.rentry_width) ~width:r.rentry_width;
    rle_push r ~start:tid v
  end;
  r.rtotal <- tid + 1

(* in-place update: replace run k by up to three segments and collapse equal
   neighbours — O(runs), modeled as a binary search plus a shifted rewrite of
   the run-list tail *)
let rle_set t r ~tid v =
  rle_search_touch t r;
  let k = rle_find r tid in
  if Value.equal r.rvals.(k) v then
    Buffer.touch_write r.rbuf (k * r.rentry_width) ~width:r.rentry_width
  else begin
    let s = r.rstarts.(k) and e = rle_run_end r k and old = r.rvals.(k) in
    let starts = Array.make (r.rcount + 2) 0 in
    let vals = Array.make (r.rcount + 2) Value.Null in
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
    for i = k + 1 to r.rcount - 1 do
      emit r.rstarts.(i) r.rvals.(i)
    done;
    Buffer.grow r.rbuf (!m * r.rentry_width);
    Buffer.touch_write_run r.rbuf (k * r.rentry_width) ~width:r.rentry_width
      ~count:(max 1 (!m - k))
      ~stride:r.rentry_width;
    r.rstarts <- starts;
    r.rvals <- vals;
    r.rcount <- !m
  end

let rle_write t r ~tid v =
  if tid = r.rtotal then rle_append r ~tid v else rle_set t r ~tid v

let rle_read t r tid =
  decoded (fun () ->
      rle_search_touch t r;
      add_cpu t 1;
      r.rvals.(rle_find r tid))

(* --- frame-of-reference storage ------------------------------------- *)

let for_drop_ex f tid =
  if Hashtbl.mem f.fex tid then begin
    Hashtbl.remove f.fex tid;
    f.fex_count <- f.fex_count - 1
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

let for_entry_width = 16 (* (tid, value) exception pair *)

(* model the binary search over the sorted exception list *)
let for_ex_touch t f =
  let steps =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    max 1 (log2 0 (max 2 f.fex_count))
  in
  let stride = max 1 (f.fex_count / (steps + 1)) in
  for i = 1 to steps do
    Buffer.touch f.fxbuf
      (min (max 0 (f.fex_count - 1)) (i * stride) * for_entry_width)
      ~width:for_entry_width
  done;
  add_cpu t steps

let for_write f p ~tid ~off ~nullable v =
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
        if not (Hashtbl.mem f.fex tid) then begin
          Buffer.grow f.fxbuf ((f.fex_count + 1) * for_entry_width);
          f.fex_count <- f.fex_count + 1
        end;
        Buffer.touch_write f.fxbuf
          ((f.fex_count - 1) * for_entry_width)
          ~width:for_entry_width;
        Hashtbl.replace f.fex tid x;
        Buffer.write_uint p.buf data_off ~width:f.fwidth f.fescape
  end

let for_read t f p ~tid ~off ~ty ~nullable =
  if nullable && Buffer.read_byte p.buf off = 0 then Value.Null
  else begin
    let data_off = if nullable then off + 1 else off in
    let z = Buffer.read_uint p.buf data_off ~width:f.fwidth in
    decoded (fun () ->
        let x =
          if z = f.fescape then begin
            for_ex_touch t f;
            Hashtbl.find f.fex tid
          end
          else begin
            add_cpu t 1;
            for_decode f z
          end
        in
        match (ty : Value.ty) with
        | Value.Date -> Value.VDate x
        | _ -> Value.VInt x)
  end

(* The field readers and writers take an attribute's type and
   nullability from its schema record field by field: a tuple of the two
   would be allocated at every access. *)
let write_field t p ~tid ~off a v =
  let attr = Schema.attr t.schema a in
  let ty = attr.Schema.ty and nullable = attr.Schema.nullable in
  match (t.sparses.(a), t.rles.(a), t.fors.(a), t.dicts.(a)) with
  | Some s, _, _, _ -> sparse_write s tid v
  | None, Some r, _, _ -> rle_write t r ~tid v
  | None, None, Some f, _ -> for_write f p ~tid ~off ~nullable v
  | None, None, None, Some d ->
      let data_off = if nullable then off + 1 else off in
      if Value.is_null v then
        if nullable then Buffer.write_byte p.buf off 0
        else invalid_arg "Relation: NULL into non-nullable attribute"
      else begin
        if nullable then Buffer.write_byte p.buf off 1;
        Buffer.write_int32 p.buf data_off (encode t d v)
      end
  | None, None, None, None -> Buffer.write_value p.buf off ~ty ~nullable v

(* Why [write_field] would refuse [v], without writing or allocating:
   sparse and RLE fields store any value, dictionary fields any non-NULL
   one, and the rest convert by type, where only a string into a number and
   a non-string into a varchar fail. *)
let rejects t a v =
  let attr = Schema.attr t.schema a in
  match
    (t.sparses.(a), t.rles.(a), t.dicts.(a), (v : Value.t), attr.Schema.ty)
  with
  | Some _, _, _, _, _ | _, Some _, _, _, _ -> None
  | _, _, _, Value.Null, _ ->
      if attr.Schema.nullable then None
      else Some "NULL into non-nullable attribute"
  | _, _, Some _, _, _ -> None
  | _, _, _, Value.VStr _, Value.Varchar _ -> None
  | _, _, _, Value.VStr _, _ -> Some "string into a numeric attribute"
  | _, _, _, _, Value.Varchar _ -> Some "non-string into a varchar attribute"
  | _ -> None

let read_field t p ~tid ~off a =
  let attr = Schema.attr t.schema a in
  let ty = attr.Schema.ty and nullable = attr.Schema.nullable in
  match (t.sparses.(a), t.rles.(a), t.fors.(a), t.dicts.(a)) with
  | Some s, _, _, _ -> sparse_read t s tid
  | None, Some r, _, _ -> rle_read t r tid
  | None, None, Some f, _ -> for_read t f p ~tid ~off ~ty ~nullable
  | None, None, None, Some d ->
      let data_off = if nullable then off + 1 else off in
      if nullable && Buffer.read_byte p.buf off = 0 then Value.Null
      else decode t d (Buffer.read_int32 p.buf data_off)
  | None, None, None, None -> Buffer.read_value p.buf off ~ty ~nullable

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
  t.encodings.(a) = Encoding.Plain && not (Schema.attr t.schema a).Schema.nullable

let int_run_readable t a =
  run_readable t a
  &&
  match (Schema.attr t.schema a).Schema.ty with
  | Value.Int | Value.Date -> true
  | _ -> false

let get_int t tid a =
  let tid = t.row_base + tid in
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  Buffer.read_int p.buf ((tid * p.width) + off)

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

(* --- direct access to compressed representations --------------------- *)

let rle_readable t a = t.rles.(a) <> None

let iter_rle_runs t ~lo ~count a f =
  if lo < 0 || count < 0 || lo + count > t.nrows then
    out_of_bounds t "iter_rle_runs" ~lo ~len:count;
  match t.rles.(a) with
  | None -> invalid_arg "Relation.iter_rle_runs: attribute is not RLE"
  | Some r ->
      if count > 0 then begin
        let abs_lo = t.row_base + lo and abs_hi = t.row_base + lo + count in
        (* locate the first overlapping run, then walk the run list *)
        rle_search_touch t r;
        let k = ref (rle_find r abs_lo) in
        while !k < r.rcount && r.rstarts.(!k) < abs_hi do
          let s = max r.rstarts.(!k) abs_lo in
          let e = min (rle_run_end r !k) abs_hi in
          Buffer.touch r.rbuf (!k * r.rentry_width) ~width:r.rentry_width;
          add_cpu t 1;
          if e > s then f ~lo:(s - t.row_base) ~len:(e - s) r.rvals.(!k);
          incr k
        done
      end

let code_width_of t a =
  match (t.dicts.(a), t.fors.(a)) with
  | Some _, _ -> Some Encoding.code_width
  | None, Some f -> Some f.fwidth
  | None, None -> None

let code_run_readable t a =
  (not (Schema.attr t.schema a).Schema.nullable) && code_width_of t a <> None

let coded_loc t what a =
  match code_width_of t a with
  | Some w -> (w, t.loc.(a))
  | None ->
      invalid_arg
        (Printf.sprintf "Relation.%s(%s): attribute %d is not code-stored" what
           t.schema.Schema.name a)

let read_code_run t ~lo ~count a dst =
  if lo < 0 || count < 0 || lo + count > t.nrows then
    out_of_bounds t "read_code_run" ~lo ~len:count;
  let w, (pi, off) = coded_loc t "read_code_run" a in
  let p = t.parts.(pi) in
  Buffer.read_uint_run p.buf
    (((t.row_base + lo) * p.width) + off)
    ~width:w ~stride:p.width ~count dst

let read_code t tid a =
  check_tid t "read_code" tid;
  let w, (pi, off) = coded_loc t "read_code" a in
  let tid = t.row_base + tid in
  let p = t.parts.(pi) in
  Buffer.read_uint p.buf ((tid * p.width) + off) ~width:w

(* One traced sequential pass over the dictionary region — pushdown builds a
   predicate bitmap by evaluating once per distinct value instead of once per
   tuple. *)
let dict_values t a =
  match t.dicts.(a) with
  | None -> [||]
  | Some d ->
      if d.count > 0 then
        Buffer.touch_run d.dbuf 0 ~width:d.value_width ~count:d.count
          ~stride:d.value_width;
      Array.sub d.values 0 d.count

let for_escape t a =
  match t.fors.(a) with Some f -> Some f.fescape | None -> None

let decode_for_code t a z =
  match t.fors.(a) with
  | None -> invalid_arg "Relation.decode_for_code: attribute is not for_bp"
  | Some f ->
      Obs.Metrics.incr m_decodes;
      add_cpu t 1;
      for_decode f z

let for_exception_value t a tid =
  match t.fors.(a) with
  | None -> invalid_arg "Relation.for_exception_value: attribute is not for_bp"
  | Some f ->
      Obs.Metrics.incr m_decodes;
      for_ex_touch t f;
      Hashtbl.find f.fex (t.row_base + tid)

let addr t tid a =
  let tid = t.row_base + tid in
  let pi, off = t.loc.(a) in
  let p = t.parts.(pi) in
  Buffer.base p.buf + (tid * p.width) + off

let field_width t a =
  Encoding.stored_width (Schema.attr t.schema a) t.encodings.(a)

let part_of_attr t a = fst t.loc.(a)
let n_parts t = Array.length t.parts
let part_row_offset t pi = t.row_base * t.parts.(pi).width
let part_width t pi = t.parts.(pi).width
let part_buffer t pi = t.parts.(pi).buf
let attr_offset t a = snd t.loc.(a)

let untraced t f =
  match t.hier with
  | Some h -> Memsim.Hierarchy.without_tracing h f
  | None -> f ()

(* Visit every stored tuple without generating simulated traffic. *)
let iter_rows t f =
  untraced t (fun () ->
      for tid = 0 to t.nrows - 1 do
        f tid (get_tuple t tid)
      done)

(* Sparse and RLE attributes must be alone in their partition; when a layout
   change groups them with others they deterministically fall back to plain
   (live repartitions and WAL replay must agree on this). *)
let sanitize_encodings layout encs =
  List.filter
    (fun (a, e) ->
      match (e : Encoding.t) with
      | Sparse | Rle -> alone_in_partition layout a
      | _ -> true)
    encs

let copy_into t dst =
  untraced t (fun () ->
      for tid = 0 to t.nrows - 1 do
        ignore (append dst (get_tuple t tid))
      done)

let recompress t ?layout encodings =
  let layout = match layout with Some l -> l | None -> t.layout in
  let dst =
    create ?hier:t.hier ~capacity:(max 1 t.nrows)
      ~encodings:(sanitize_encodings layout encodings)
      t.arena t.schema layout
  in
  copy_into t dst;
  dst

let repartition t layout =
  let dst =
    create ?hier:t.hier ~capacity:(max 1 t.nrows)
      ~encodings:(sanitize_encodings layout (encodings t))
      t.arena t.schema layout
  in
  let all_plain = Array.for_all (fun e -> e = Encoding.Plain) t.encodings in
  if all_plain then begin
    (* Plain fields have the same stored bytes under any partitioning, so a
       repartition is pure byte movement: copy each attribute's column of
       fixed-width fields directly instead of boxing every value through
       get_tuple/append.  (Dict and Sparse columns keep OCaml-side state and
       take the generic path.) *)
    ensure_capacity dst t.nrows;
    let fw a = Encoding.stored_width (Schema.attr t.schema a) t.encodings.(a) in
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
  untraced t (fun () ->
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
  untraced t (fun () ->
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
