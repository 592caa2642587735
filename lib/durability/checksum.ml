(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte ranges.
   Every WAL record and snapshot carries one so recovery can tell a torn or
   corrupted tail from valid data.

   Slicing-by-8: eight 256-entry tables, where table k maps a byte to its
   CRC contribution k positions ahead of the end of an 8-byte block, let the
   main loop fold 8 bytes per step with two 4-byte loads and eight lookups
   instead of one lookup per byte.  Same polynomial, same values; the tail
   (fewer than 8 bytes) runs bytewise through table 0. *)

(* [t.((k * 256) + b)] is table k's entry for byte [b]. *)
let build () =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* Built on first use, so a program that never checksums allocates nothing
   for them; domains that race here build equal tables. *)
let cache = Atomic.make [||]

let tables () =
  match Atomic.get cache with
  | [||] ->
      let t = build () in
      Atomic.set cache t;
      t
  | t -> t

let u32_le b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.bytes";
  let t = tables () in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = u32_le b !i lxor !crc and hi = u32_le b (!i + 4) in
    crc :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let bytes b ~pos ~len = update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
