(* The simulated extent is [base] and [size]; [bytes] backs it and may be
   longer (host room, zero past [size]). *)
type t = {
  arena : Arena.t;
  hier : Memsim.Hierarchy.t option;
  mutable base : int;
  mutable size : int;
  mutable bytes : Bytes.t;
}

let create arena ?hier ?(room = 0) size =
  {
    arena;
    hier;
    base = Arena.alloc arena size;
    size;
    bytes = Bytes.make (max size room) '\000';
  }

let base t = t.base
let size t = t.size
let with_hier t hier = { t with hier }

let grow t want =
  if want > t.size then begin
    let nsize = max want (2 * t.size) in
    if nsize > Bytes.length t.bytes then begin
      let nbytes = Bytes.make nsize '\000' in
      Bytes.blit t.bytes 0 nbytes 0 t.size;
      t.bytes <- nbytes
    end;
    t.size <- nsize;
    t.base <- Arena.alloc t.arena nsize
  end

let trace_read t off width =
  match t.hier with
  | Some h -> Memsim.Hierarchy.read h ~addr:(t.base + off) ~width
  | None -> ()

let trace_write t off width =
  match t.hier with
  | Some h -> Memsim.Hierarchy.write h ~addr:(t.base + off) ~width
  | None -> ()

let read_int t off =
  trace_read t off 8;
  Int64.to_int (Bytes.get_int64_le t.bytes off)

let write_int t off v =
  trace_write t off 8;
  Bytes.set_int64_le t.bytes off (Int64.of_int v)

let read_float t off =
  trace_read t off 8;
  Int64.float_of_bits (Bytes.get_int64_le t.bytes off)

let write_float t off v =
  trace_write t off 8;
  Bytes.set_int64_le t.bytes off (Int64.bits_of_float v)

let read_int32 t off =
  trace_read t off 4;
  Int32.to_int (Bytes.get_int32_le t.bytes off)

let write_int32 t off v =
  trace_write t off 4;
  Bytes.set_int32_le t.bytes off (Int32.of_int v)

let read_byte t off =
  trace_read t off 1;
  Char.code (Bytes.get t.bytes off)

(* Narrow unsigned accessors for compressed code fields (1/2/4/8 bytes). *)
let get_uint t off ~width =
  match width with
  | 1 -> Char.code (Bytes.get t.bytes off)
  | 2 -> Bytes.get_uint16_le t.bytes off
  | 4 -> Int32.to_int (Bytes.get_int32_le t.bytes off) land 0xffffffff
  | 8 -> Int64.to_int (Bytes.get_int64_le t.bytes off)
  | _ -> invalid_arg "Buffer: unsupported uint width"

let set_uint t off ~width v =
  match width with
  | 1 -> Bytes.set t.bytes off (Char.chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le t.bytes off (v land 0xffff)
  | 4 -> Bytes.set_int32_le t.bytes off (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.bytes off (Int64.of_int v)
  | _ -> invalid_arg "Buffer: unsupported uint width"

let read_uint t off ~width =
  trace_read t off width;
  get_uint t off ~width

let write_uint t off ~width v =
  trace_write t off width;
  set_uint t off ~width v

let write_byte t off v =
  trace_write t off 1;
  Bytes.set t.bytes off (Char.chr (v land 0xff))

(* Untraced stored-field reads for the snapshot writer; they agree with
   the traced [read_value] below. *)

let stored_payload t off ~nullable =
  if not nullable then off
  else if Bytes.get t.bytes off = '\000' then -1
  else off + 1

let stored_bool t off = Bytes.get t.bytes off <> '\000'

let stored_varchar_length t off ~len =
  let n = ref 0 in
  while !n < len && Bytes.get t.bytes (off + !n) <> '\000' do
    incr n
  done;
  !n

let read_string t off ~len =
  trace_read t off len;
  let s = Bytes.sub_string t.bytes off len in
  match String.index_opt s '\000' with
  | Some i -> String.sub s 0 i
  | None -> s

let write_string t off ~len s =
  trace_write t off len;
  let slen = min len (String.length s) in
  Bytes.blit_string s 0 t.bytes off slen;
  if slen < len then Bytes.fill t.bytes (off + slen) (len - slen) '\000'

let read_value t off ~ty ~nullable =
  let data_off = if nullable then off + 1 else off in
  if nullable && read_byte t off = 0 then begin
    (* a null still occupies (and touches) the field *)
    Value.Null
  end
  else
    match (ty : Value.ty) with
    | Int -> Value.VInt (read_int t data_off)
    | Float -> Value.VFloat (read_float t data_off)
    | Bool -> Value.VBool (read_byte t data_off <> 0)
    | Date -> Value.VDate (read_int t data_off)
    | Varchar n -> Value.VStr (read_string t data_off ~len:n)

let value_reader t ~ty ~nullable =
  if nullable then fun off -> read_value t off ~ty ~nullable
  else
    match (ty : Value.ty) with
    | Int -> fun off -> Value.VInt (read_int t off)
    | Date -> fun off -> Value.VDate (read_int t off)
    | Float -> fun off -> Value.VFloat (read_float t off)
    | Bool -> fun off -> Value.VBool (read_byte t off <> 0)
    | Varchar n -> fun off -> Value.VStr (read_string t off ~len:n)

let write_value t off ~ty ~nullable v =
  let data_off = if nullable then off + 1 else off in
  (match (v, nullable) with
  | Value.Null, false ->
      invalid_arg "Buffer.write_value: NULL into non-nullable attribute"
  | Value.Null, true ->
      write_byte t off 0
  | _, true -> write_byte t off 1
  | _, false -> ());
  if not (Value.is_null v) then
    match (ty : Value.ty) with
    | Int | Date -> write_int t data_off (Value.to_int v)
    | Float -> write_float t data_off (Value.to_float v)
    | Bool -> write_byte t data_off (if Value.to_int v <> 0 then 1 else 0)
    | Varchar n -> write_string t data_off ~len:n (Value.to_string_exn v)

let unsafe_bytes t = t.bytes
let untraced_read_int t off = Int64.to_int (Bytes.get_int64_le t.bytes off)
let untraced_write_int t off v = Bytes.set_int64_le t.bytes off (Int64.of_int v)

(* Untraced strided field copy: moves [count] fields of [width] bytes from
   [src] to [dst], advancing by the respective strides.  8-byte fields (the
   overwhelmingly common stored width) move as int64 loads/stores instead of
   per-field [Bytes.blit] calls; fields contiguous on both sides collapse to
   one blit. *)
let copy_run ~src ~src_off ~src_stride ~dst ~dst_off ~dst_stride ~width ~count =
  if src_stride = width && dst_stride = width then
    Bytes.blit src.bytes src_off dst.bytes dst_off (width * count)
  else if width = 8 then begin
    let sb = src.bytes and db = dst.bytes in
    for i = 0 to count - 1 do
      Bytes.set_int64_le db
        (dst_off + (i * dst_stride))
        (Bytes.get_int64_le sb (src_off + (i * src_stride)))
    done
  end
  else
    for i = 0 to count - 1 do
      Bytes.blit src.bytes
        (src_off + (i * src_stride))
        dst.bytes
        (dst_off + (i * dst_stride))
        width
    done

let touch t off ~width = trace_read t off width
let touch_write t off ~width = trace_write t off width

(* Run accessors: trace the whole fixed-stride run with one simulator call
   (the hierarchy batches it line-by-line), then move bytes in a tight loop
   with the hier match and base addition hoisted out. *)

let touch_run t off ~width ~count ~stride =
  match t.hier with
  | Some h -> Memsim.Hierarchy.read_run h ~addr:(t.base + off) ~width ~count ~stride
  | None -> ()

let touch_write_run t off ~width ~count ~stride =
  match t.hier with
  | Some h -> Memsim.Hierarchy.write_run h ~addr:(t.base + off) ~width ~count ~stride
  | None -> ()

let read_int_run t off ?(stride = 8) ~count dst =
  touch_run t off ~width:8 ~count ~stride;
  let b = t.bytes in
  for i = 0 to count - 1 do
    Array.unsafe_set dst i
      (Int64.to_int (Bytes.get_int64_le b (off + (i * stride))))
  done

let write_int_run t off ?(stride = 8) ~count src =
  touch_write_run t off ~width:8 ~count ~stride;
  let b = t.bytes in
  for i = 0 to count - 1 do
    Bytes.set_int64_le b (off + (i * stride))
      (Int64.of_int (Array.unsafe_get src i))
  done

let read_uint_run t off ~width ?stride ~count dst =
  let stride = match stride with Some s -> s | None -> width in
  touch_run t off ~width ~count ~stride;
  for i = 0 to count - 1 do
    Array.unsafe_set dst i (get_uint t (off + (i * stride)) ~width)
  done

(* Run variants of [read_value]/[write_value] for non-nullable attributes
   only: a nullable field is two separate touches per element (null byte and
   payload), which is not one uniform-width run — callers must fall back. *)

let read_value_run t off ~stride ~ty ~count dst =
  match (ty : Value.ty) with
  | Int ->
      touch_run t off ~width:8 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Array.unsafe_set dst i
          (Value.VInt (Int64.to_int (Bytes.get_int64_le b (off + (i * stride)))))
      done
  | Date ->
      touch_run t off ~width:8 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Array.unsafe_set dst i
          (Value.VDate (Int64.to_int (Bytes.get_int64_le b (off + (i * stride)))))
      done
  | Float ->
      touch_run t off ~width:8 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Array.unsafe_set dst i
          (Value.VFloat
             (Int64.float_of_bits (Bytes.get_int64_le b (off + (i * stride)))))
      done
  | Bool ->
      touch_run t off ~width:1 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Array.unsafe_set dst i
          (Value.VBool (Bytes.get b (off + (i * stride)) <> '\000'))
      done
  | Varchar n ->
      touch_run t off ~width:n ~count ~stride;
      for i = 0 to count - 1 do
        let s = Bytes.sub_string t.bytes (off + (i * stride)) n in
        let s =
          match String.index_opt s '\000' with
          | Some j -> String.sub s 0 j
          | None -> s
        in
        Array.unsafe_set dst i (Value.VStr s)
      done

let write_value_run t off ~stride ~ty ~count src =
  match (ty : Value.ty) with
  | Int | Date ->
      touch_write_run t off ~width:8 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Bytes.set_int64_le b (off + (i * stride))
          (Int64.of_int (Value.to_int (Array.unsafe_get src i)))
      done
  | Float ->
      touch_write_run t off ~width:8 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Bytes.set_int64_le b (off + (i * stride))
          (Int64.bits_of_float (Value.to_float (Array.unsafe_get src i)))
      done
  | Bool ->
      touch_write_run t off ~width:1 ~count ~stride;
      let b = t.bytes in
      for i = 0 to count - 1 do
        Bytes.set b (off + (i * stride))
          (if Value.to_int (Array.unsafe_get src i) <> 0 then '\001' else '\000')
      done
  | Varchar n ->
      touch_write_run t off ~width:n ~count ~stride;
      for i = 0 to count - 1 do
        let s = Value.to_string_exn (Array.unsafe_get src i) in
        let o = off + (i * stride) in
        let slen = min n (String.length s) in
        Bytes.blit_string s 0 t.bytes o slen;
        if slen < n then Bytes.fill t.bytes (o + slen) (n - slen) '\000'
      done
