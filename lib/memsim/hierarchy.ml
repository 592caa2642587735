type walker = {
  touch : addr:int -> width:int -> is_write:bool -> unit;
  touch_run :
    addr:int -> width:int -> count:int -> stride:int -> is_write:bool -> unit;
  clear : unit -> unit;
}

type t = {
  params : Params.t;
  mutable tracing : bool;
  reference : walker option;
      (* a test oracle that replaces the walk below, see [create] *)
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.Llc.t;
  tlb : Cache.t;
  pf : Prefetcher.t;
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
  mutable last_tlb : int;
      (* page of the most recent actual TLB probe.  Every TLB modification
         goes through that probe, so a repeat lookup of this page is a
         guaranteed hit on an already-MRU entry, which changes nothing: it
         can be skipped with identical counters, costs and replacement
         state. *)
  mutable last_l2 : int; (* same memo for the most recent L2 line probed *)
  mutable last_l1 : int;
      (* same memo for the most recent L1 line probed; fires on
         read-modify-write word patterns (aggregate state updates) *)
}

let create ?(params = Params.nehalem) ?reference () =
  assert (Array.length params.levels = 3);
  let l1 = Cache.create params.levels.(0) in
  let l2 = Cache.create params.levels.(1) in
  let l3 = Cache.Llc.create params.levels.(2) in
  let tlb = Cache.create params.tlb in
  let stats = Stats.create () in
  {
    params;
    tracing = true;
    reference = Option.map (fun make -> make params stats) reference;
    l1;
    l2;
    l3;
    tlb;
    pf = Prefetcher.create ~streams:params.prefetch_streams;
    stats;
    l1_bits = Cache.block_bits l1;
    l2_bits = Cache.block_bits l2;
    l3_bits = Cache.Llc.block_bits l3;
    tlb_bits = Cache.block_bits tlb;
    l1_lat = params.levels.(0).latency;
    l2_lat = params.levels.(1).latency;
    l3_lat = params.levels.(2).latency;
    tlb_lat = params.tlb.latency;
    mem_lat = params.memory_latency;
    last_tlb = -1;
    last_l2 = -1;
    last_l1 = -1;
  }

let params t = t.params

(* Int-only [min]/[max]: the fast path takes them once per word, and
   [Stdlib]'s polymorphic ones are a C compare call each. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* The L1→L2→LLC walk of one 8-byte-word probe, without the TLB lookup.
   Callers that have just probed another word of the same page may use this
   directly: the page is resident and most-recently-used, so the skipped
   TLB lookup would be a guaranteed hit that only refreshes an already-MRU
   entry — no counter, cost or replacement decision can differ.  Returns
   the cycle cost. *)
let probe_word_no_tlb t a =
  let s = t.stats in
  let l1_line = a lsr t.l1_bits in
  if l1_line = t.last_l1 then (* guaranteed hit, see [last_l1] *) t.l1_lat
  else if begin
    t.last_l1 <- l1_line;
    Cache.access t.l1 l1_line
  end
  then t.l1_lat
  else begin
    s.l1_misses <- s.l1_misses + 1;
    let l2_line = a lsr t.l2_bits in
    if l2_line = t.last_l2 then
      (* repeat of the line probed by the previous L2 access: resident and
         MRU (access fills on miss), so this is a guaranteed hit *)
      t.l1_lat + t.l2_lat
    else if begin
      t.last_l2 <- l2_line;
      Cache.access t.l2 l2_line
    end
    then t.l1_lat + t.l2_lat
    else begin
      s.l2_misses <- s.l2_misses + 1;
      let line = a lsr t.l3_bits in
      s.llc_accesses <- s.llc_accesses + 1;
      let mem_cost =
        match Cache.Llc.access_pending t.l3 line with
        | Cache.Llc.Hit -> 0
        | Cache.Llc.Hit_pending ->
            (* first demand touch of a prefetched line: its memory latency
               was hidden behind processing — the paper's "sequential miss" *)
            s.llc_seq_misses <- s.llc_seq_misses + 1;
            0
        | Cache.Llc.Miss ->
            s.llc_rand_misses <- s.llc_rand_misses + 1;
            t.mem_lat
      in
      let p = Prefetcher.observe t.pf line in
      if p >= 0 && Cache.Llc.prefetch t.l3 p then
        s.prefetches <- s.prefetches + 1;
      t.l1_lat + t.l2_lat + t.l3_lat + mem_cost
    end
  end

(* One 8-byte-word probe of the full hierarchy.  Returns the cycle cost. *)
let probe_word t a =
  let page = a lsr t.tlb_bits in
  let tlb_cost =
    if page = t.last_tlb then (* guaranteed hit, see [last_tlb] *) 0
    else begin
      t.last_tlb <- page;
      if Cache.access t.tlb page then 0
      else begin
        t.stats.tlb_misses <- t.stats.tlb_misses + 1;
        t.tlb_lat
      end
    end
  in
  tlb_cost + probe_word_no_tlb t a

let touch_fast t ~addr ~width ~is_write =
  let s = t.stats in
  let first = addr lsr 3 and last = (addr + width - 1) lsr 3 in
  (* Fast path: words sharing one L1 line (and hence one TLB page, as lines
     never span pages) after the first are guaranteed L1+TLB hits — the first
     probe either hit or just filled line and page.  Probing them would only
     refresh the recency of entries that are already most-recently-used, so
     skipping the lookups leaves every cache, the prefetcher and all counters
     in exactly the state the per-word loop produces; each skipped word still
     accounts one access at L1 latency. *)
  if first = last then begin
    s.accesses <- s.accesses + 1;
    if is_write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
    s.mem_cycles <- s.mem_cycles + probe_word t (first lsl 3)
  end
  else begin
    (* One probe per L1-line group as before; additionally the TLB lookup is
       elided while the walk stays on the page just probed — that lookup is a
       guaranteed hit refreshing an already-MRU entry, so counters, cycles
       and replacement state are unchanged (same argument as the group
       skip). *)
    let group_bits = imin t.l1_bits t.tlb_bits - 3 in
    let group_mask = (1 lsl imax 0 group_bits) - 1 in
    let page_bits = t.tlb_bits - 3 in
    let w = ref first in
    let cur_page = ref (-1) in
    while !w <= last do
      let g_last = imin last (!w lor group_mask) in
      let k = g_last - !w + 1 in
      s.accesses <- s.accesses + k;
      if is_write then s.writes <- s.writes + k else s.reads <- s.reads + k;
      let pg = !w lsr page_bits in
      let c =
        if pg = !cur_page then probe_word_no_tlb t (!w lsl 3)
        else begin
          cur_page := pg;
          probe_word t (!w lsl 3)
        end
      in
      s.mem_cycles <- s.mem_cycles + c + ((k - 1) * t.l1_lat);
      w := g_last + 1
    done
  end

(* Run-batched tracing: simulate

     for i = 0 to count-1 do touch ~addr:(addr + i*stride) ~width done

   probing each distinct L1 line once per streak and each distinct TLB page
   once per streak.  The equivalence argument is the one [touch] makes for
   words of one line, extended across the accesses of the run: while
   consecutive accesses stay inside the line just probed, a re-probe is a
   guaranteed L1 (and TLB) hit on its set's most recently used way, which a
   hit leaves where it is ([Cache] keeps sets in recency order): it changes
   no counter, cost or cache state.  Likewise a streak that moves to a new
   line of the page just probed re-probes only L1/L2/LLC; the TLB entry is
   resident and MRU.  Every skipped word still accounts one access at L1
   latency, so counters and cycles are byte-identical to the per-word loop.
   State is tracked only within one call: the first access always probes. *)
let touch_run_fast t ~addr ~width ~count ~stride ~is_write =
  let s = t.stats in
  let group_bits = imax 0 (imin t.l1_bits t.tlb_bits - 3) in
  let group_mask = (1 lsl group_bits) - 1 in
  (* word-group -> page shift: group_bits <= tlb_bits - 3 by construction *)
  let page_shift = t.tlb_bits - 3 - group_bits in
  let words = ref 0 in
  let cycles = ref 0 in
  let cur_group = ref (-1) in
  if stride > 0 && stride land 7 = 0 && (addr land 7) + width <= 8 then begin
    (* The engines' canonical shape — every element is exactly one word and
       the stride keeps word alignment (column scans, position vectors, row
       runs).  Addresses increase monotonically, so each distinct line is
       one streak: charge whole streaks per loop iteration instead of
       walking the run element by element.  Counter accounting is the
       per-element loop's, just summed per streak: one probe plus L1 latency
       for every further element of the streak. *)
    let gb = group_bits + 3 in
    if stride >= 1 lsl gb then begin
      (* every element lands in its own group: probe each, only the TLB
         lookup is elided while the page stays the same *)
      for i = 0 to count - 1 do
        let a = addr + (i * stride) in
        let g = a lsr gb in
        let c =
          if !cur_group >= 0 && !cur_group lsr page_shift = g lsr page_shift
          then probe_word_no_tlb t a
          else probe_word t a
        in
        cur_group := g;
        cycles := !cycles + c
      done;
      words := count
    end
    else begin
      let i = ref 0 in
      while !i < count do
        let a = addr + (!i * stride) in
        let g = a lsr gb in
        let k =
          imin (count - !i) (((((g + 1) lsl gb) - a) + stride - 1) / stride)
        in
        let c =
          if !cur_group >= 0 && !cur_group lsr page_shift = g lsr page_shift
          then probe_word_no_tlb t a
          else probe_word t a
        in
        cur_group := g;
        cycles := !cycles + c + ((k - 1) * t.l1_lat);
        words := !words + k;
        i := !i + k
      done
    end
  end
  else
    for i = 0 to count - 1 do
      let a = addr + (i * stride) in
      let first = a lsr 3 and last = (a + width - 1) lsr 3 in
      let w = ref first in
      while !w <= last do
        let g_last = imin last (!w lor group_mask) in
        let k = g_last - !w + 1 in
        let g = !w lsr group_bits in
        if g = !cur_group then cycles := !cycles + (k * t.l1_lat)
        else begin
          let c =
            if !cur_group >= 0 && !cur_group lsr page_shift = g lsr page_shift
            then probe_word_no_tlb t (!w lsl 3)
            else probe_word t (!w lsl 3)
          in
          cur_group := g;
          cycles := !cycles + c + ((k - 1) * t.l1_lat)
        end;
        words := !words + k;
        w := g_last + 1
      done
    done;
  s.accesses <- s.accesses + !words;
  if is_write then s.writes <- s.writes + !words
  else s.reads <- s.reads + !words;
  s.mem_cycles <- s.mem_cycles + !cycles

(* Direct calls into the reference walk: an indirect tail call would give
   [touch] and [touch_run] a stack frame and an entry poll, paid on the
   batched walk too. *)
let[@inline never] reference_touch r ~addr ~width ~is_write =
  r.touch ~addr ~width ~is_write

let[@inline never] reference_touch_run r ~addr ~width ~count ~stride
    ~is_write =
  r.touch_run ~addr ~width ~count ~stride ~is_write

(* [@inline] keeps [read]/[write] a direct jump into [touch_fast]. *)
let[@inline] touch t ~addr ~width ~is_write =
  match t.reference with
  | None -> touch_fast t ~addr ~width ~is_write
  | Some r -> reference_touch r ~addr ~width ~is_write

let touch_run t ~addr ~width ~count ~stride ~is_write =
  if count > 0 && width > 0 then
    match t.reference with
    | None -> touch_run_fast t ~addr ~width ~count ~stride ~is_write
    | Some r -> reference_touch_run r ~addr ~width ~count ~stride ~is_write

let read t ~addr ~width =
  if t.tracing then touch t ~addr ~width ~is_write:false

let write t ~addr ~width =
  if t.tracing then touch t ~addr ~width ~is_write:true

let read_run t ~addr ~width ~count ~stride =
  if t.tracing then touch_run t ~addr ~width ~count ~stride ~is_write:false

let write_run t ~addr ~width ~count ~stride =
  if t.tracing then touch_run t ~addr ~width ~count ~stride ~is_write:true

let add_cpu t n = if t.tracing then t.stats.cpu_cycles <- t.stats.cpu_cycles + n

let set_enabled t b = t.tracing <- b
let enabled t = t.tracing

let without_tracing t f =
  let prev = t.tracing in
  t.tracing <- false;
  Fun.protect ~finally:(fun () -> t.tracing <- prev) f

let stats t = t.stats
let snapshot t = Stats.copy t.stats

let section t f =
  let before = Stats.copy t.stats in
  let v = f () in
  (v, Stats.diff t.stats before)
let reset_stats t = Stats.reset t.stats

let reset t =
  Stats.reset t.stats;
  Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.Llc.clear t.l3;
  Cache.clear t.tlb;
  Prefetcher.clear t.pf;
  Option.iter (fun r -> r.clear ()) t.reference;
  t.last_tlb <- -1;
  t.last_l2 <- -1;
  t.last_l1 <- -1
