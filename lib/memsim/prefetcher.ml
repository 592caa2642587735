(* Stream [i] is [last.(i)] (last accessed LLC line), [stride.(i)] (detected
   stride, 0 = none) and [age.(i)] (clock of its last access).  A new stream
   takes the highest-index free slot, so the free slots are always the
   prefix [0, free) and the scans visit only [free, n).  Both scans pack a
   key and the slot index into one int, [key lsl bits lor index], and keep a
   running minimum with sign masks instead of branches: the host cannot
   predict which of 16 streams an LLC access belongs to. *)
type t = {
  last : int array;
  stride : int array;
  age : int array;
  bits : int; (* width of the index field of a packed key *)
  mutable free : int;
  mutable clock : int;
}

let none = -1

(* A delta larger than this cannot belong to an existing stream; the access
   opens a new one.  64 lines = 4kB with 64B lines, roughly a page. *)
let max_stream_delta = 64

(* A packed distance must stay a non-negative int: with at most 6 index
   bits that holds for every distance below 2^56, which covers every line
   of a 64-byte-block LLC over non-negative addresses. *)
let max_streams = 64

let create ~streams =
  if streams < 1 || streams > max_streams then
    invalid_arg "Prefetcher.create: streams outside [1, 64]";
  let rec bits b = if 1 lsl b >= streams then b else bits (b + 1) in
  {
    last = Array.make streams 0;
    stride = Array.make streams 0;
    age = Array.make streams 0;
    bits = bits 0;
    free = streams;
    clock = 0;
  }

let clear t =
  t.free <- Array.length t.age;
  t.clock <- 0

(* -1 if [x] is negative, else 0 *)
let sign x = x asr (Sys.int_size - 1)

(* [min a b] for non-negative [a] and [b], without a branch *)
let min_key a b =
  let d = b - a in
  a + (d land sign d)

(* The stream nearest to [line] within [max_stream_delta], the lowest index
   among equally near ones, or -1: the minimum packed distance, which is out
   of range only when every stream is. *)
let nearest t line =
  let bits = t.bits in
  let best = ref max_int in
  for i = t.free to Array.length t.last - 1 do
    let d = line - Array.unsafe_get t.last i in
    let s = sign d in
    best := min_key !best ((((d lxor s) - s) lsl bits) lor i)
  done;
  if !best lsr bits <= max_stream_delta then !best land ((1 lsl bits) - 1)
  else -1

(* The slot a new stream takes: the highest-index free slot, else the least
   recently used stream's.  Ages are distinct, so the minimum is unique. *)
let new_slot t =
  if t.free > 0 then begin
    t.free <- t.free - 1;
    t.free
  end
  else begin
    let bits = t.bits in
    let best = ref max_int in
    for i = 0 to Array.length t.age - 1 do
      best := min_key !best ((Array.unsafe_get t.age i lsl bits) lor i)
    done;
    !best land ((1 lsl bits) - 1)
  end

let observe t line =
  t.clock <- t.clock + 1;
  let i = nearest t line in
  if i < 0 then begin
    let j = new_slot t in
    t.last.(j) <- line;
    t.stride.(j) <- 0;
    t.age.(j) <- t.clock;
    none
  end
  else begin
    t.age.(i) <- t.clock;
    let delta = line - t.last.(i) in
    if delta = 0 then none
    else begin
      t.last.(i) <- line;
      if delta = 1 then begin
        (* adjacent cache line: always prefetch the next one *)
        t.stride.(i) <- 1;
        line + 1
      end
      else if delta = t.stride.(i) then line + delta
      else begin
        t.stride.(i) <- delta;
        none
      end
    end
  end
