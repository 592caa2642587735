(* The reference tracer: the original (pre-batching) per-word walk, kept
   verbatim — mod-based set indexing, two-pass find/victim walks over tags
   and LRU timestamps, the prefetched-line side table, a TLB probe per
   L1-line group, a record per prefetcher stream.  It is the independent
   implementation the identity tests compare the batched walk against, and
   the "before" the tracefast bench times.  It shares no code with the
   batched walk: only [Params] and [Stats]. *)

module Params = Memsim.Params
module Stats = Memsim.Stats

(* The adjacent-line and stride prefetcher, one record per stream: a line
   is prefetched when an access is adjacent to its stream's previous one,
   or repeats the stream's stride.  An access joins the nearest stream at
   most [max_stream_delta] lines away, the lowest index among equally near
   ones; a new stream takes the highest-index invalid slot, else the least
   recently used one. *)
module Prefetcher = struct
  type stream = {
    mutable last : int;
    mutable stride : int;
    mutable age : int;
    mutable valid : bool;
  }

  type t = { streams : stream array; mutable clock : int }

  let max_stream_delta = 64

  let create ~streams =
    {
      streams =
        Array.init streams (fun _ ->
            { last = 0; stride = 0; age = 0; valid = false });
      clock = 0;
    }

  let clear t =
    Array.iter (fun s -> s.valid <- false) t.streams;
    t.clock <- 0

  let find_stream t line =
    let n = Array.length t.streams in
    let best = ref (-1) in
    let best_delta = ref max_int in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get t.streams i in
      if s.valid then begin
        let d = abs (line - s.last) in
        if d <= max_stream_delta && d < !best_delta then begin
          best := i;
          best_delta := d
        end
      end
    done;
    !best

  let lru_slot t =
    let n = Array.length t.streams in
    let best = ref 0 in
    let best_age = ref max_int in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get t.streams i in
      if not s.valid then begin
        best := i;
        best_age := -1
      end
      else if s.age < !best_age then begin
        best := i;
        best_age := s.age
      end
    done;
    !best

  (* The line to prefetch after a demand access to LLC [line], if any. *)
  let observe t line =
    t.clock <- t.clock + 1;
    let i = find_stream t line in
    if i < 0 then begin
      let s = t.streams.(lru_slot t) in
      s.last <- line;
      s.stride <- 0;
      s.age <- t.clock;
      s.valid <- true;
      None
    end
    else begin
      let s = t.streams.(i) in
      s.age <- t.clock;
      let delta = line - s.last in
      if delta = 0 then None
      else begin
        s.last <- line;
        if delta = 1 then begin
          s.stride <- 1;
          Some (line + 1)
        end
        else if delta = s.stride then Some (line + s.stride)
        else begin
          s.stride <- delta;
          None
        end
      end
    end
end

(* One cache level: per set, separate find and victim walks over a tag
   array and LRU timestamps.  A miss fills an invalid way if the set has
   one and evicts the least recently used line otherwise. *)
module Cache = struct
  type t = {
    sets : int;
    assoc : int;
    tags : int array;
    ages : int array; (* LRU timestamps *)
    mutable clock : int;
  }

  let create (l : Params.level) =
    let sets = max 1 (l.capacity / (l.block * l.assoc)) in
    {
      sets;
      assoc = l.assoc;
      tags = Array.make (sets * l.assoc) (-1);
      ages = Array.make (sets * l.assoc) 0;
      clock = 0;
    }

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.ages 0 (Array.length t.ages) 0;
    t.clock <- 0

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
end

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  tlb : Cache.t;
  pf : Prefetcher.t;
  pending_ref : (int, unit) Hashtbl.t; (* prefetched, not yet touched *)
  stats : Stats.t;
  l1_bits : int;
  l2_bits : int;
  l3_bits : int;
  tlb_bits : int;
  l1_lat : int;
  l2_lat : int;
  l3_lat : int;
  tlb_lat : int;
  mem_lat : int;
}

let create (params : Params.t) stats =
  let level (l : Params.level) = (Cache.create l, log2 l.block, l.latency) in
  let l1, l1_bits, l1_lat = level params.levels.(0) in
  let l2, l2_bits, l2_lat = level params.levels.(1) in
  let l3, l3_bits, l3_lat = level params.levels.(2) in
  let tlb, tlb_bits, tlb_lat = level params.tlb in
  {
    l1;
    l2;
    l3;
    tlb;
    pf = Prefetcher.create ~streams:params.prefetch_streams;
    pending_ref = Hashtbl.create 1024;
    stats;
    l1_bits;
    l2_bits;
    l3_bits;
    tlb_bits;
    l1_lat;
    l2_lat;
    l3_lat;
    tlb_lat;
    mem_lat = params.memory_latency;
  }

let probe_word_ref t a =
  let s = t.stats in
  let cost = ref t.l1_lat in
  if not (Cache.access_ref t.tlb (a lsr t.tlb_bits)) then begin
    s.tlb_misses <- s.tlb_misses + 1;
    cost := !cost + t.tlb_lat
  end;
  if not (Cache.access_ref t.l1 (a lsr t.l1_bits)) then begin
    s.l1_misses <- s.l1_misses + 1;
    cost := !cost + t.l2_lat;
    if not (Cache.access_ref t.l2 (a lsr t.l2_bits)) then begin
      s.l2_misses <- s.l2_misses + 1;
      cost := !cost + t.l3_lat;
      let line = a lsr t.l3_bits in
      s.llc_accesses <- s.llc_accesses + 1;
      if Cache.access_ref t.l3 line then begin
        if Hashtbl.mem t.pending_ref line then begin
          s.llc_seq_misses <- s.llc_seq_misses + 1;
          Hashtbl.remove t.pending_ref line
        end
      end
      else begin
        Hashtbl.remove t.pending_ref line;
        s.llc_rand_misses <- s.llc_rand_misses + 1;
        cost := !cost + t.mem_lat
      end;
      match Prefetcher.observe t.pf line with
      | Some p when p >= 0 && not (Cache.mem_ref t.l3 p) ->
          Cache.insert_ref t.l3 p;
          Hashtbl.replace t.pending_ref p ();
          s.prefetches <- s.prefetches + 1
      | _ -> ()
    end
  end;
  !cost

let touch_ref t ~addr ~width ~is_write =
  let s = t.stats in
  let first = addr lsr 3 and last = (addr + width - 1) lsr 3 in
  if first = last then begin
    s.accesses <- s.accesses + 1;
    if is_write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
    s.mem_cycles <- s.mem_cycles + probe_word_ref t (first lsl 3)
  end
  else begin
    let group_bits = min t.l1_bits t.tlb_bits - 3 in
    let group_mask = (1 lsl max 0 group_bits) - 1 in
    let w = ref first in
    while !w <= last do
      let g_last = min last (!w lor group_mask) in
      let k = g_last - !w + 1 in
      s.accesses <- s.accesses + k;
      if is_write then s.writes <- s.writes + k else s.reads <- s.reads + k;
      let c = probe_word_ref t (!w lsl 3) in
      s.mem_cycles <- s.mem_cycles + c + ((k - 1) * t.l1_lat);
      w := g_last + 1
    done
  end

(* The reference semantics of a run: the plain per-access loop. *)
let touch_run_slow t ~addr ~width ~count ~stride ~is_write =
  for i = 0 to count - 1 do
    touch_ref t ~addr:(addr + (i * stride)) ~width ~is_write
  done

let clear t =
  List.iter Cache.clear [ t.l1; t.l2; t.l3; t.tlb ];
  Prefetcher.clear t.pf;
  Hashtbl.reset t.pending_ref

let walker params stats : Memsim.Hierarchy.walker =
  let t = create params stats in
  {
    touch = touch_ref t;
    touch_run = touch_run_slow t;
    clear = (fun () -> clear t);
  }

let hierarchy ?params () = Memsim.Hierarchy.create ?params ~reference:walker ()
