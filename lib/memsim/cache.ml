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
  mutable tags : int array;
      (* tags and ages of the reference probes only: empty until
         [use_reference], and the fast probes never touch them *)
  mutable ages : int array; (* LRU timestamps *)
  mutable clock : int;
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
    tags = [||];
    ages = [||];
    clock = 0;
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

let clear t =
  Array.fill t.words 0 (Array.length t.words) (-1);
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  t.clock <- 0

(* Reference probes: the pre-batching implementation — mod-based set
   indexing, separate find / victim walks over tags and LRU ages — kept
   verbatim so the hierarchy's MEMSIM_FASTPATH=0 path has the wall-clock
   profile of the original tracer, not an optimized one.  Their replacement
   decisions are the fast path's: a miss fills an invalid way if the set has
   one and evicts the least recently used line otherwise.  They run on their
   own [tags]/[ages] (the reference hierarchy tracks prefetched lines in a
   side table), so a cache must be driven through either the reference or
   the fast probes, not a mix. *)

let use_reference t =
  if Array.length t.tags = 0 then begin
    t.tags <- Array.make (Array.length t.words) (-1);
    t.ages <- Array.make (Array.length t.words) 0;
    t.clock <- 0
  end

let touch_slot t slot =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.ages slot t.clock

let set_base_ref t line = line mod t.sets * t.assoc

let find_ref t line =
  let base = set_base_ref t line in
  let rec go i =
    if i >= t.assoc then -1
    else if t.tags.(base + i) = line then base + i
    else go (i + 1)
  in
  go 0

let victim_ref t line =
  let base = set_base_ref t line in
  let rec go i best best_age =
    if i >= t.assoc then best
    else
      let slot = base + i in
      if t.tags.(slot) = -1 then slot
      else if t.ages.(slot) < best_age then go (i + 1) slot t.ages.(slot)
      else go (i + 1) best best_age
  in
  go 1 base t.ages.(base)

let access_ref t line =
  let slot = find_ref t line in
  if slot >= 0 then begin
    touch_slot t slot;
    true
  end
  else begin
    let v = victim_ref t line in
    t.tags.(v) <- line;
    touch_slot t v;
    false
  end

let insert_ref t line =
  let slot = find_ref t line in
  if slot >= 0 then touch_slot t slot
  else begin
    let v = victim_ref t line in
    t.tags.(v) <- line;
    touch_slot t v
  end

let mem_ref t line = find_ref t line >= 0
