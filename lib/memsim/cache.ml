type t = {
  name : string;
  sets : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  block_bits : int;
  words : int array;
      (* sets * assoc tag words, each set most recently used first:
         [line lsl 1 lor pending], -1 for an invalid way.  Fills enter at
         the front, so a set's invalid ways are always its tail. *)
}

type probe = Miss | Hit | Hit_pending

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (l : Params.level) =
  assert (l.block > 0 && l.block land (l.block - 1) = 0);
  let sets = max 1 (l.capacity / (l.block * l.assoc)) in
  {
    name = l.name;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc = l.assoc;
    block_bits = log2 l.block;
    words = Array.make (sets * l.assoc) (-1);
  }

let block_bits t = t.block_bits
let name t = t.name

(* Every probe computes the set index; a power-of-two set count (the common
   case) turns the division into a mask.  All way indices derived from it
   are in bounds by construction, so the walks below use unsafe accesses. *)
let[@inline] set_base t line =
  (if t.set_mask >= 0 then line land t.set_mask else line mod t.sets) * t.assoc

(* The way in [i, limit) holding [line], or -1.  The walk stops at the
   first invalid way: invalid ways are the tail.  An invalid word never
   matches, as [-1 lsr 1] is [max_int]. *)
let rec find (words : int array) line i limit =
  if i = limit then -1
  else
    let w = Array.unsafe_get words i in
    if w lsr 1 = line then i
    else if w < 0 then -1
    else find words line (i + 1) limit

(* One pass that both looks for [line] from way [i] on and shifts each way
   it passes one way towards the tail, [prev] being the word that moves into
   way [i].  It stops at [line]'s way, returning the word that was there, or
   at the first invalid way or past the LRU way, returning -1 with that way's
   word dropped.  Either way the front way is then the caller's to fill. *)
let rec shift (words : int array) line i limit prev =
  if i = limit then -1
  else
    let w = Array.unsafe_get words i in
    Array.unsafe_set words i prev;
    if w lsr 1 = line then w
    else if w < 0 then -1
    else shift words line (i + 1) limit w

(* [line]'s tag word, or -1 when it is absent, after a walk that frees the
   front way of the set at [base] for the caller to fill. *)
let[@inline] walk words base limit line =
  let w0 = Array.unsafe_get words base in
  if w0 lsr 1 = line then w0 else shift words line (base + 1) limit w0

let access t line =
  let words = t.words in
  let base = set_base t line in
  let w = walk words base (base + t.assoc) line in
  Array.unsafe_set words base (if w < 0 then line lsl 1 else w);
  w >= 0

let access_pending t line =
  let words = t.words in
  let base = set_base t line in
  let w = walk words base (base + t.assoc) line in
  if w < 0 then begin
    Array.unsafe_set words base (line lsl 1);
    Miss
  end
  else begin
    Array.unsafe_set words base (w land lnot 1);
    if w land 1 = 0 then Hit else Hit_pending
  end

let prefetch t line =
  let words = t.words in
  let base = set_base t line in
  let limit = base + t.assoc in
  if find words line base limit >= 0 then false
  else begin
    ignore (walk words base limit line);
    Array.unsafe_set words base ((line lsl 1) lor 1);
    true
  end

let mem t line =
  let base = set_base t line in
  find t.words line base (base + t.assoc) >= 0

let clear t = Array.fill t.words 0 (Array.length t.words) (-1)
