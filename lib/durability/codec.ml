(* Binary wire format helpers shared by the WAL and snapshots.

   Everything is little-endian and length-prefixed; readers raise
   [Truncated] on any attempt to read past the end, and on any field whose
   value is malformed, so callers can distinguish a torn or corrupt record
   from valid data. *)

module Value = Storage.Value
module Schema = Storage.Schema
module Encoding = Storage.Encoding
module Index = Storage.Index

exception Truncated of string

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

(* A growable byte cursor: [buf.(0 .. pos-1)] holds what was written. *)
type writer = { mutable buf : Bytes.t; mutable pos : int }

let writer ?(size = 256) () = { buf = Bytes.create (max 16 size); pos = 0 }
let length w = w.pos
let reset w = w.pos <- 0
let unsafe_bytes w = w.buf
let contents w = Bytes.sub_string w.buf 0 w.pos

let grow w n =
  let bigger = Bytes.create (max (w.pos + n) (2 * Bytes.length w.buf)) in
  Bytes.blit w.buf 0 bigger 0 w.pos;
  w.buf <- bigger

let[@inline] reserve w n = if w.pos + n > Bytes.length w.buf then grow w n

(* The [put_*] stores assume the bytes were reserved. *)
let[@inline] put_u8 w v =
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (v land 0xFF));
  w.pos <- w.pos + 1

let[@inline] put_u32 w v =
  Bytes.set_int32_le w.buf w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let[@inline] put_i64_bits w v =
  Bytes.set_int64_le w.buf w.pos v;
  w.pos <- w.pos + 8

let[@inline] put_sub w src ~pos ~len =
  Bytes.blit src pos w.buf w.pos len;
  w.pos <- w.pos + len

let u8 w v =
  reserve w 1;
  put_u8 w v

let u32 w v =
  reserve w 4;
  put_u32 w v

let i64 w v =
  reserve w 8;
  put_i64_bits w (Int64.of_int v)

let raw w s =
  let len = String.length s in
  reserve w len;
  put_sub w (Bytes.unsafe_of_string s) ~pos:0 ~len

let str w s =
  u32 w (String.length s);
  raw w s

(* Loops, not [List.iter (f w)], whose partial application would be
   allocated at every record. *)
let rec items w f = function
  | [] -> ()
  | x :: rest ->
      f w x;
      items w f rest

let list w f xs =
  u32 w (List.length xs);
  items w f xs

let array w f xs =
  u32 w (Array.length xs);
  for i = 0 to Array.length xs - 1 do
    f w (Array.unsafe_get xs i)
  done

(* Values: a one-byte tag and its payload.  The unboxed emitters below are
   the one owner of the tag format; [value] dispatches to them, and the
   snapshot writer calls them with fields read straight from partition
   bytes. *)

let[@inline] tag w t payload =
  reserve w (1 + payload);
  put_u8 w t

let vnull w = tag w 0 0

let[@inline] vint w x =
  tag w 1 8;
  put_i64_bits w (Int64.of_int x)

let[@inline] vfloat_bits w bits =
  tag w 2 8;
  put_i64_bits w bits

let vfloat_sub w src ~pos =
  tag w 2 8;
  put_i64_bits w (Bytes.get_int64_le src pos)

let[@inline] vbool w b =
  tag w 3 1;
  put_u8 w (if b then 1 else 0)

let[@inline] vdate w d =
  tag w 4 8;
  put_i64_bits w (Int64.of_int d)

let vstr_sub w src ~pos ~len =
  tag w 5 (4 + len);
  put_u32 w len;
  put_sub w src ~pos ~len

let value w (v : Value.t) =
  match v with
  | Value.Null -> vnull w
  | Value.VInt x -> vint w x
  | Value.VFloat x -> vfloat_bits w (Int64.bits_of_float x)
  | Value.VBool b -> vbool w b
  | Value.VDate d -> vdate w d
  | Value.VStr s ->
      vstr_sub w (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let ty w (t : Value.ty) =
  match t with
  | Value.Int -> u8 w 0
  | Value.Float -> u8 w 1
  | Value.Bool -> u8 w 2
  | Value.Date -> u8 w 3
  | Value.Varchar n ->
      u8 w 4;
      u32 w n

let schema w (s : Schema.t) =
  str w s.Schema.name;
  u32 w (Schema.arity s);
  for i = 0 to Schema.arity s - 1 do
    let a = Schema.attr s i in
    str w a.Schema.name;
    ty w a.Schema.ty;
    u8 w (if a.Schema.nullable then 1 else 0)
  done

let layout_groups w groups = list w (fun w g -> list w u32 g) groups

let encoding w e = u8 w (Encoding.to_code e)

let encodings w es =
  list w
    (fun w (a, e) ->
      u32 w a;
      encoding w e)
    es

let index_kind w (k : Index.kind) =
  u8 w (match k with Index.Hash -> 0 | Index.Rbtree -> 1)

(* ------------------------------------------------------------------ *)
(* Frames:  u32 payload length | u32 CRC-32 of payload | payload      *)
(* ------------------------------------------------------------------ *)

let frame_header = 8

let frame_open w =
  let at = w.pos in
  reserve w frame_header;
  w.pos <- w.pos + frame_header;
  at

let frame_close w at =
  let len = w.pos - at - frame_header in
  Bytes.set_int32_le w.buf at (Int32.of_int len);
  Bytes.set_int32_le w.buf (at + 4)
    (Int32.of_int (Checksum.bytes w.buf ~pos:(at + frame_header) ~len))

type frame =
  | Framed of int
  | Short
  | Overlong of int
  | Corrupt of int

let u32_at buf pos = Int32.to_int (Bytes.get_int32_le buf pos) land 0xFFFFFFFF

let read_frame ?(max_len = max_int) buf ~pos =
  let avail = Bytes.length buf - pos - frame_header in
  if avail < 0 then Short
  else
    let len = u32_at buf pos in
    if len > max_len || len > avail then Overlong len
    else if
      Checksum.bytes buf ~pos:(pos + frame_header) ~len <> u32_at buf (pos + 4)
    then Corrupt len
    else Framed len

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

type reader = { buf : Bytes.t; mutable pos : int; stop : int }

let reader ?(pos = 0) ?len buf =
  let stop = match len with Some l -> pos + l | None -> Bytes.length buf in
  { buf; pos; stop }

let remaining r = r.stop - r.pos

let need r n what =
  if r.pos + n > r.stop then
    raise
      (Truncated
         (Printf.sprintf "%s: need %d bytes, %d left" what n (remaining r)))

let ru8 r =
  need r 1 "u8";
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4 "u32";
  let v = u32_at r.buf r.pos in
  r.pos <- r.pos + 4;
  v

let ri64 r =
  need r 8 "i64";
  let v = Int64.to_int (Bytes.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let rf64 r =
  need r 8 "f64";
  let v = Int64.float_of_bits (Bytes.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n "string payload";
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let rlist r f =
  let n = ru32 r in
  List.init n (fun _ -> f r)

let rvalue r : Value.t =
  match ru8 r with
  | 0 -> Value.Null
  | 1 -> Value.VInt (ri64 r)
  | 2 -> Value.VFloat (rf64 r)
  | 3 -> Value.VBool (ru8 r <> 0)
  | 4 -> Value.VDate (ri64 r)
  | 5 -> Value.VStr (rstr r)
  | t -> raise (Truncated (Printf.sprintf "value: unknown tag %d" t))

let rty r : Value.ty =
  match ru8 r with
  | 0 -> Value.Int
  | 1 -> Value.Float
  | 2 -> Value.Bool
  | 3 -> Value.Date
  | 4 -> Value.Varchar (ru32 r)
  | t -> raise (Truncated (Printf.sprintf "type: unknown tag %d" t))

let rschema r =
  let name = rstr r in
  let arity = ru32 r in
  let attrs =
    List.init arity (fun _ ->
        let aname = rstr r in
        let aty = rty r in
        let nullable = ru8 r <> 0 in
        (aname, aty, nullable))
  in
  Schema.make_nullable name attrs

let rlayout_groups r = rlist r (fun r -> rlist r ru32)

let rencoding r =
  let c = ru8 r in
  try Encoding.of_code c
  with Invalid_argument _ ->
    raise (Truncated (Printf.sprintf "encoding: unknown code %d" c))

let rencodings r =
  rlist r (fun r ->
      let a = ru32 r in
      let e = rencoding r in
      (a, e))

let rindex_kind r : Index.kind =
  match ru8 r with
  | 0 -> Index.Hash
  | 1 -> Index.Rbtree
  | t -> raise (Truncated (Printf.sprintf "index kind: unknown tag %d" t))
