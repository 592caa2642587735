type t = {
  sets : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  block_bits : int;
  words : int array;
      (* sets * assoc tag words, each set most recently used first:
         [line lsl 1 lor pending], -1 for an invalid way.  Fills enter at
         the front, so a set's invalid ways are always its tail. *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (l : Params.level) =
  assert (l.block > 0 && l.block land (l.block - 1) = 0);
  let sets = max 1 (l.capacity / (l.block * l.assoc)) in
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc = l.assoc;
    block_bits = log2 l.block;
    words = Array.make (sets * l.assoc) (-1);
  }

let block_bits t = t.block_bits

(* Every probe computes the set index; a power-of-two set count (the common
   case) turns the division into a mask.  All way indices derived from it
   are in bounds by construction, so the walks below use unsafe accesses. *)
let[@inline] set_index t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

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
  let base = set_index t line * t.assoc in
  let w = walk words base (base + t.assoc) line in
  Array.unsafe_set words base (if w < 0 then line lsl 1 else w);
  w >= 0

let mem t line =
  let base = set_index t line * t.assoc in
  find t.words line base (base + t.assoc) >= 0

let clear t = Array.fill t.words 0 (Array.length t.words) (-1)

module Llc = struct
  type level = t

  type nonrec t = {
    tags : level;
    stamps : int array;
        (* per set, the epoch its tag words were last made valid in; a set
           stamped before [epoch] holds words from before the last clear *)
    mutable epoch : int;
  }

  type probe = Miss | Hit | Hit_pending

  let create l =
    let tags = create l in
    { tags; stamps = Array.make tags.sets 0; epoch = 0 }

  let block_bits t = t.tags.block_bits

  (* The base of [line]'s set, for a probe that may write it.  A stale set
     first gets its ways written invalid and the current stamp: it then
     holds what the [Array.fill] of a plain level's [clear] leaves. *)
  let[@inline] live_base t line =
    let tags = t.tags in
    let set = set_index tags line in
    let base = set * tags.assoc in
    if Array.unsafe_get t.stamps set <> t.epoch then begin
      Array.unsafe_set t.stamps set t.epoch;
      Array.fill tags.words base tags.assoc (-1)
    end;
    base

  let access_pending t line =
    let words = t.tags.words in
    let base = live_base t line in
    let w = walk words base (base + t.tags.assoc) line in
    if w < 0 then begin
      Array.unsafe_set words base (line lsl 1);
      Miss
    end
    else begin
      Array.unsafe_set words base (w land lnot 1);
      if w land 1 = 0 then Hit else Hit_pending
    end

  let prefetch t line =
    let words = t.tags.words in
    let base = live_base t line in
    let limit = base + t.tags.assoc in
    if find words line base limit >= 0 then false
    else begin
      ignore (walk words base limit line);
      Array.unsafe_set words base ((line lsl 1) lor 1);
      true
    end

  let mem t line =
    let tags = t.tags in
    let set = set_index tags line in
    Array.unsafe_get t.stamps set = t.epoch
    && find tags.words line (set * tags.assoc) ((set + 1) * tags.assoc) >= 0

  let clear t = t.epoch <- t.epoch + 1
end
