type t = {
  arena : Arena.t;
  hier : Memsim.Hierarchy.t option;
  mutable buf : Buffer.t;
  mutable slots : int;
  mutable count : int;
}

(* slot layout: 8 bytes key, 8 bytes (tid + 1); 0 in the tid field = empty *)
let entry_width = 16

let create arena ?hier ?(capacity = 64) () =
  let slots = max 16 (capacity * 2) in
  {
    arena;
    hier;
    buf = Buffer.create arena ?hier (slots * entry_width);
    slots;
    count = 0;
  }

let mix_key k =
  (* finalizer of splitmix64, for good slot distribution *)
  let z = Int64.of_int k in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)

let slot_of t key = mix_key key mod t.slots

let rec insert_raw t ~key ~tid =
  if 2 * (t.count + 1) > t.slots then rehash t;
  let rec probe i =
    let off = i * entry_width in
    let occ = Buffer.read_int t.buf (off + 8) in
    if occ = 0 then begin
      Buffer.write_int t.buf off key;
      Buffer.write_int t.buf (off + 8) (tid + 1)
    end
    else probe ((i + 1) mod t.slots)
  in
  probe (slot_of t key);
  t.count <- t.count + 1

and rehash t =
  let old_buf = t.buf and old_slots = t.slots in
  Memsim.Hierarchy.untraced t.hier (fun () ->
      t.slots <- old_slots * 2;
      t.buf <- Buffer.create t.arena ?hier:t.hier (t.slots * entry_width);
      t.count <- 0;
      for i = 0 to old_slots - 1 do
        let off = i * entry_width in
        let occ = Buffer.read_int old_buf (off + 8) in
        if occ <> 0 then
          insert_raw t ~key:(Buffer.read_int old_buf off) ~tid:(occ - 1)
      done)

let insert t ~key ~tid = insert_raw t ~key ~tid

let lookup t ~key =
  let rec probe i acc =
    let off = i * entry_width in
    let occ = Buffer.read_int t.buf (off + 8) in
    if occ = 0 then List.rev acc
    else
      let k = Buffer.read_int t.buf off in
      let acc = if k = key then (occ - 1) :: acc else acc in
      probe ((i + 1) mod t.slots) acc
  in
  probe (slot_of t key) []

let length t = t.count

let fnv s =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3 land max_int)
    s;
  !h

let key_of_value = function
  | Value.Null -> min_int / 2
  | Value.VInt x -> x
  | Value.VBool b -> if b then 1 else 0
  | Value.VDate d -> d (* same key as VInt: the two compare equal *)
  | Value.VFloat f -> Int64.to_int (Int64.bits_of_float f)
  | Value.VStr s -> fnv s

let key_of_values vs =
  List.fold_left (fun acc v -> (acc * 1000003) lxor key_of_value v) 0 vs
