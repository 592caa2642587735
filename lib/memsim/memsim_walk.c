/* The simulated cache walk: TLB, L1, L2 and LLC lookups, the LLC's
 * prefetcher, and the run batching of Memsim.Hierarchy's read, write,
 * read_run and write_run.
 *
 * The walk runs once per simulated word group, hundreds of millions of
 * times per experiment.  It is in C because each probe crosses four
 * structures (three cache levels and the prefetcher): as OCaml modules
 * built with -opaque every crossing was an unknown call, and as one OCaml
 * module the random-access streams got slower, not faster (DESIGN 5b).
 *
 * Boundary.  Every entry point is a [@@noalloc] external: it allocates
 * nothing, raises nothing and cannot trigger a collection.  Its state is
 * one OCaml [Bytes.t] (a [struct walk] header, then every array it
 * indexes, by offset): no malloc, no custom block, no finalizer, and no
 * pointer kept between calls.  Counts are added straight into the caller's
 * live Stats.t, whose fields are immediate ints, so no write barrier is
 * needed.  There are no globals: each domain walks its own hierarchy.
 * Memsim.Hierarchy validates the geometry before any of it reaches C, so
 * no divisor here can be zero and no shift negative.
 *
 * Arithmetic.  Addresses are OCaml ints; a shift of one is OCaml's [lsr]
 * on 63 bits ([lsr63]), so a set index is always in range.  The counts
 * equal the OCaml walk's while line numbers stay below 2^56, the bound
 * that keeps the prefetcher's packed distances non-negative (6 index
 * bits); addresses in [0, 2^59) satisfy it for any block size. */

#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

/* Field indices of Memsim.Stats.t, in declaration order. */
enum {
  ACCESSES, READS, WRITES, L1_MISSES, L2_MISSES, LLC_ACCESSES,
  LLC_SEQ_MISSES, LLC_RAND_MISSES, TLB_MISSES, PREFETCHES, MEM_CYCLES
};

static inline void count(value *s, int field, int64_t n)
{
  s[field] += (value)(2 * n); /* Val_long (Long_val s + n) */
}

/* One cache level.  Its tag words are [sets * assoc] words at [w + words],
 * each set most recently used first: [line << 1 | pending], -1 for an
 * invalid way.  Fills enter at the front, so a set's invalid ways are
 * always its tail, and the word a miss drops is an invalid way if the set
 * has one, else the least recently used line: the one an LRU age
 * comparison evicts.  Only the LLC's words ever carry a pending bit. */
struct level {
  int64_t sets;
  int64_t set_mask; /* sets - 1 when sets is a power of two, else -1 */
  int64_t assoc;
  int64_t bits; /* log2 of the block size */
  int64_t lat;
  int64_t words;
};

struct walk {
  struct level l1, l2, l3, tlb;
  int64_t mem_lat;
  /* The line (page) of the most recent actual L1 (L2, TLB) probe.  Every
     change to a level goes through such a probe, which leaves its line
     most recently used, so a repeat probe of it is a hit that changes
     nothing and is skipped. */
  int64_t last_l1, last_l2, last_tlb;
  /* Per LLC set, the epoch its ways were last made valid in: reset bumps
     [epoch], and a set stamped earlier holds words from before it. */
  int64_t stamps, epoch;
  /* The prefetcher: stream i is [last[i]] (last LLC line), [stride[i]]
     (0 = none) and [age[i]] (clock of its last access).  A new stream
     takes the highest-index free slot, so the free slots are the prefix
     [0, free). */
  int64_t streams, pf_bits, free, clock;
  int64_t last, stride, age;
  int64_t w[];
};

#define MAX_STREAM_DELTA 64 /* lines; a farther access opens a stream */

static inline int64_t lsr63(int64_t x, int64_t bits)
{
  return (int64_t)(((uint64_t)x & INT64_MAX) >> bits);
}

static inline int64_t imin(int64_t a, int64_t b) { return a <= b ? a : b; }

/* A power-of-two set count, the common case, turns the division into a
   mask. */
static inline int64_t set_index(const struct level *l, int64_t line)
{
  return l->set_mask >= 0 ? line & l->set_mask : line % l->sets;
}

static inline int64_t *set_of(int64_t *w, const struct level *l, int64_t line)
{
  return w + l->words + set_index(l, line) * l->assoc;
}

/* Whether [line] is in [set].  An invalid word never matches, as
   [-1 >> 1] is -1, and ends the walk: invalid ways are the tail. */
static inline int find(const int64_t *set, int64_t assoc, int64_t line)
{
  for (int64_t i = 0; i < assoc; i++) {
    int64_t x = set[i];
    if (x >> 1 == line) return 1;
    if (x < 0) return 0;
  }
  return 0;
}

/* [line]'s tag word, or -1 when it is absent, after one pass that shifts
   every way before it one way towards the tail.  The pass stops at
   [line]'s way, or at the first invalid way or past the LRU way, whose
   word is dropped.  Either way the front way is the caller's to fill. */
static inline int64_t walk_set(int64_t *set, int64_t assoc, int64_t line)
{
  int64_t prev = set[0];
  if (prev >> 1 == line) return prev;
  for (int64_t i = 1; i < assoc; i++) {
    int64_t x = set[i];
    set[i] = prev;
    if (x >> 1 == line) return x;
    if (x < 0) return -1;
    prev = x;
  }
  return -1;
}

/* A plain level (L1, L2, TLB): look [line] up and make it the set's most
   recently used line, filling it on a miss.  1 on a hit. */
static inline int access_level(int64_t *w, const struct level *l, int64_t line)
{
  int64_t *set = set_of(w, l, line);
  int64_t x = walk_set(set, l->assoc, line);
  set[0] = x < 0 ? line << 1 : x;
  return x >= 0;
}

/* [line]'s LLC set, for a probe that may change it.  A set stamped before
   the epoch first gets its ways written invalid and the current stamp, so
   every probe sees what a fill of all tag words at reset would have left.
   A query that reaches every set still pays about a fill; the saving is
   on ops that touch few sets, such as an insert or a point read. */
static inline int64_t *llc_set(struct walk *k, int64_t line)
{
  int64_t set = set_index(&k->l3, line);
  int64_t *ways = k->w + k->l3.words + set * k->l3.assoc;
  int64_t *stamp = k->w + k->stamps + set;
  if (*stamp != k->epoch) {
    *stamp = k->epoch;
    memset(ways, 0xff, (size_t)k->l3.assoc * sizeof *ways);
  }
  return ways;
}

enum { MISS, HIT, HIT_PENDING };

/* A demand probe of the LLC, which also reads and clears the line's
   pending bit: HIT_PENDING comes once per prefetch, on the first demand
   touch of a line a prefetch filled.  A demand fill writes a clear bit
   and an evicted line takes its bit with it. */
static inline int llc_access(struct walk *k, int64_t line)
{
  int64_t *set = llc_set(k, line);
  int64_t x = walk_set(set, k->l3.assoc, line);
  if (x < 0) {
    set[0] = line << 1;
    return MISS;
  }
  set[0] = x & ~(int64_t)1;
  return (x & 1) ? HIT_PENDING : HIT;
}

/* Fill an absent [line] as its set's most recently used line, pending,
   and return 1; leave a resident one as it is and return 0. */
static inline int llc_prefetch(struct walk *k, int64_t line)
{
  int64_t *set = llc_set(k, line);
  int64_t assoc = k->l3.assoc;
  if (find(set, assoc, line)) return 0;
  walk_set(set, assoc, line);
  set[0] = (line << 1) | 1;
  return 1;
}

/* Both prefetcher scans pack a key and the slot index into one int,
   [key << pf_bits | index], and keep a running minimum with sign masks
   instead of branches: the host cannot predict which of 16 streams an LLC
   access belongs to. */
static inline int64_t sign(int64_t x) { return x >> 63; }

/* min a b for non-negative a and b, without a branch */
static inline int64_t min_key(int64_t a, int64_t b)
{
  int64_t d = b - a;
  return a + (d & sign(d));
}

/* Record a demand access to LLC [line], joining the nearest stream at
   most MAX_STREAM_DELTA lines away (the lowest index among equally near
   ones), and return the line to prefetch, or -1: [line + 1] after an
   adjacent access, [line + stride] when the delta repeats the stream's
   stride.  A negative result is never a line to prefetch. */
static int64_t observe(struct walk *k, int64_t line)
{
  int64_t *last = k->w + k->last, *stride = k->w + k->stride;
  int64_t *age = k->w + k->age;
  int64_t n = k->streams, bits = k->pf_bits, mask = ((int64_t)1 << bits) - 1;
  int64_t clock = ++k->clock;
  int64_t best = INT64_MAX;
  for (int64_t i = k->free; i < n; i++) {
    int64_t d = line - last[i], s = sign(d);
    best = min_key(best, (((d ^ s) - s) << bits) | i);
  }
  if ((best >> bits) > MAX_STREAM_DELTA) {
    /* a new stream: the highest-index free slot, else the least recently
       used stream's (ages are distinct, so that one is unique) */
    int64_t j;
    if (k->free > 0)
      j = --k->free;
    else {
      best = INT64_MAX;
      for (int64_t i = 0; i < n; i++) best = min_key(best, (age[i] << bits) | i);
      j = best & mask;
    }
    last[j] = line;
    stride[j] = 0;
    age[j] = clock;
    return -1;
  }
  int64_t i = best & mask;
  age[i] = clock;
  int64_t delta = line - last[i];
  if (delta == 0) return -1;
  last[i] = line;
  if (delta == 1) { /* adjacent line: always prefetch the next one */
    stride[i] = 1;
    return line + 1;
  }
  if (delta == stride[i]) return line + delta;
  stride[i] = delta;
  return -1;
}

/* The L1, L2, LLC walk of one word probe at [a], without the TLB lookup:
   callers that have just probed another word of the same page skip it,
   as it would be a hit on an already most recently used entry.  Returns
   the cycle cost. */
static inline int64_t probe_no_tlb(struct walk *k, value *s, int64_t a)
{
  int64_t l1_line = lsr63(a, k->l1.bits);
  if (l1_line == k->last_l1) return k->l1.lat;
  k->last_l1 = l1_line;
  if (access_level(k->w, &k->l1, l1_line)) return k->l1.lat;
  count(s, L1_MISSES, 1);
  int64_t l2_line = lsr63(a, k->l2.bits);
  if (l2_line == k->last_l2) return k->l1.lat + k->l2.lat;
  k->last_l2 = l2_line;
  if (access_level(k->w, &k->l2, l2_line)) return k->l1.lat + k->l2.lat;
  count(s, L2_MISSES, 1);
  int64_t line = lsr63(a, k->l3.bits), mem_cost = 0;
  count(s, LLC_ACCESSES, 1);
  switch (llc_access(k, line)) {
  case HIT:
    break;
  case HIT_PENDING:
    /* first demand touch of a prefetched line: its memory latency was
       hidden behind processing, the paper's "sequential miss" */
    count(s, LLC_SEQ_MISSES, 1);
    break;
  default:
    count(s, LLC_RAND_MISSES, 1);
    mem_cost = k->mem_lat;
  }
  int64_t p = observe(k, line);
  if (p >= 0 && llc_prefetch(k, p)) count(s, PREFETCHES, 1);
  return k->l1.lat + k->l2.lat + k->l3.lat + mem_cost;
}

/* One word probe of the whole hierarchy.  Returns the cycle cost. */
static inline int64_t probe(struct walk *k, value *s, int64_t a)
{
  int64_t page = lsr63(a, k->tlb.bits), tlb_cost = 0;
  if (page != k->last_tlb) {
    k->last_tlb = page;
    if (!access_level(k->w, &k->tlb, page)) {
      count(s, TLB_MISSES, 1);
      tlb_cost = k->tlb.lat;
    }
  }
  return tlb_cost + probe_no_tlb(k, s, a);
}

/* One access of [width] bytes at [addr], cut into 8-byte words.  Words
   after the first of an L1-line group (which never spans a page) are L1
   and TLB hits on most recently used entries: each is counted as one
   access at L1 latency without a probe.  The TLB lookup is also skipped
   while the walk stays on the page it just probed. */
CAMLprim value mrdb_memsim_touch(value state, value stats, intnat addr,
                                 intnat width, value is_write)
{
  struct walk *k = (struct walk *)Bytes_val(state);
  value *s = Op_val(stats);
  int rw = Bool_val(is_write) ? WRITES : READS;
  int64_t first = lsr63(addr, 3), last = lsr63(addr + width - 1, 3);
  if (first == last) {
    count(s, ACCESSES, 1);
    count(s, rw, 1);
    count(s, MEM_CYCLES, probe(k, s, first << 3));
    return Val_unit;
  }
  /* words per L1-line group; every block is at least a word */
  int64_t group_mask = ((int64_t)1 << (imin(k->l1.bits, k->tlb.bits) - 3)) - 1;
  int64_t page_bits = k->tlb.bits - 3, cur_page = -1;
  for (int64_t w = first; w <= last;) {
    int64_t g_last = imin(last, w | group_mask), n = g_last - w + 1, c;
    count(s, ACCESSES, n);
    count(s, rw, n);
    int64_t pg = w >> page_bits;
    if (pg == cur_page)
      c = probe_no_tlb(k, s, w << 3);
    else {
      cur_page = pg;
      c = probe(k, s, w << 3);
    }
    count(s, MEM_CYCLES, c + (n - 1) * k->l1.lat);
    w = g_last + 1;
  }
  return Val_unit;
}

/* The run [for i < count: touch (addr + i * stride) width], for count > 0
   and width > 0, probing each distinct L1-line group once per streak and
   each page once per streak: while consecutive accesses stay inside the
   group just probed, a re-probe would be a hit on its set's most recently
   used way, which changes nothing.  Every skipped word still counts one
   access at L1 latency.  The first access of a call always probes. */
CAMLprim value mrdb_memsim_touch_run(value state, value stats, intnat addr,
                                     intnat width, intnat n, intnat stride,
                                     value is_write)
{
  struct walk *k = (struct walk *)Bytes_val(state);
  value *s = Op_val(stats);
  int64_t l1_lat = k->l1.lat;
  /* words per L1-line group; every block is at least a word */
  int64_t group_bits = imin(k->l1.bits, k->tlb.bits) - 3;
  int64_t group_mask = ((int64_t)1 << group_bits) - 1;
  /* word group -> page: group_bits <= tlb.bits - 3 by construction */
  int64_t page_shift = k->tlb.bits - 3 - group_bits;
  int64_t words = 0, cycles = 0, cur_group = -1;
#define SAME_PAGE(g) \
  (cur_group >= 0 && cur_group >> page_shift == (g) >> page_shift)
  if (stride > 0 && (stride & 7) == 0 && (addr & 7) + width <= 8) {
    /* Every element is one word and the stride keeps word alignment
       (column scans, position vectors, row runs): addresses increase, so
       each group is one streak, charged per iteration. */
    int64_t gb = group_bits + 3;
    if (stride >= (int64_t)1 << gb) {
      /* every element lands in its own group */
      for (int64_t i = 0; i < n; i++) {
        int64_t a = addr + i * stride, g = lsr63(a, gb);
        cycles += SAME_PAGE(g) ? probe_no_tlb(k, s, a) : probe(k, s, a);
        cur_group = g;
      }
      words = n;
    } else {
      /* m: the elements from [a] to the end of its group */
      int64_t span = (int64_t)1 << gb;
      for (int64_t i = 0; i < n;) {
        int64_t a = addr + i * stride, g = lsr63(a, gb);
        int64_t m = imin(n - i, (span - (a & (span - 1)) + stride - 1) / stride);
        int64_t c = SAME_PAGE(g) ? probe_no_tlb(k, s, a) : probe(k, s, a);
        cur_group = g;
        cycles += c + (m - 1) * l1_lat;
        words += m;
        i += m;
      }
    }
  } else {
    for (int64_t i = 0; i < n; i++) {
      int64_t a = addr + i * stride;
      int64_t last = lsr63(a + width - 1, 3);
      for (int64_t w = lsr63(a, 3); w <= last;) {
        int64_t g_last = imin(last, w | group_mask), m = g_last - w + 1;
        int64_t g = w >> group_bits;
        if (g == cur_group)
          cycles += m * l1_lat;
        else {
          int64_t wa = w << 3;
          int64_t c = SAME_PAGE(g) ? probe_no_tlb(k, s, wa) : probe(k, s, wa);
          cur_group = g;
          cycles += c + (m - 1) * l1_lat;
        }
        words += m;
        w = g_last + 1;
      }
    }
  }
#undef SAME_PAGE
  count(s, ACCESSES, words);
  count(s, Bool_val(is_write) ? WRITES : READS, words);
  count(s, MEM_CYCLES, cycles);
  return Val_unit;
}

/* Forget every cache, TLB and prefetcher entry: the L1, L2 and TLB tag
   words are written invalid (8,200 words under the Nehalem geometry), the
   LLC starts a new epoch whatever its size.  The L1 keeps the plain clear
   because it is probed on every access: a stamp check there cost the big
   queries 4-5% of host time in a prototype. */
CAMLprim value mrdb_memsim_reset(value state)
{
  struct walk *k = (struct walk *)Bytes_val(state);
  const struct level *plain[] = { &k->l1, &k->l2, &k->tlb };
  for (int i = 0; i < 3; i++)
    memset(k->w + plain[i]->words, 0xff,
           (size_t)(plain[i]->sets * plain[i]->assoc) * sizeof(int64_t));
  k->epoch++;
  k->free = k->streams;
  k->clock = 0;
  k->last_l1 = k->last_l2 = k->last_tlb = -1;
  return Val_unit;
}

/* The geometry Memsim.Hierarchy validated: per level, in the order L1, L2,
   L3, TLB, its [sets; assoc; bits; latency]; then the memory latency and
   the prefetch streams.  Lays out [k]'s arrays, when [k] is not NULL, and
   returns the state's size in bytes. */
static int64_t layout(value geometry, struct walk *k)
{
  struct walk h;
  memset(&h, 0, sizeof h);
  struct level *levels[] = { &h.l1, &h.l2, &h.l3, &h.tlb };
  int64_t words = 0;
  for (int i = 0; i < 4; i++) {
    struct level *l = levels[i];
    l->sets = Long_val(Field(geometry, 4 * i));
    l->assoc = Long_val(Field(geometry, 4 * i + 1));
    l->bits = Long_val(Field(geometry, 4 * i + 2));
    l->lat = Long_val(Field(geometry, 4 * i + 3));
    l->set_mask = (l->sets & (l->sets - 1)) == 0 ? l->sets - 1 : -1;
    l->words = words;
    words += l->sets * l->assoc;
  }
  h.mem_lat = Long_val(Field(geometry, 16));
  h.streams = Long_val(Field(geometry, 17));
  h.stamps = words;
  words += h.l3.sets;
  h.last = words;
  h.stride = words + h.streams;
  h.age = words + 2 * h.streams;
  words += 3 * h.streams;
  if (k != NULL) {
    *k = h;
    k->last_l1 = k->last_l2 = k->last_tlb = -1;
    k->epoch = 0;
    for (k->pf_bits = 0; ((int64_t)1 << k->pf_bits) < k->streams; k->pf_bits++)
      ;
    k->free = k->streams;
    k->clock = 0;
    memset(k->w, 0xff, (size_t)h.stamps * sizeof(int64_t));
    memset(k->w + h.stamps, 0, (size_t)(words - h.stamps) * sizeof(int64_t));
  }
  return (int64_t)sizeof(struct walk) + words * (int64_t)sizeof(int64_t);
}

CAMLprim value mrdb_memsim_bytes(value geometry)
{
  return Val_long(layout(geometry, NULL));
}

/* [state] must hold [mrdb_memsim_bytes geometry] bytes. */
CAMLprim value mrdb_memsim_init(value state, value geometry)
{
  layout(geometry, (struct walk *)Bytes_val(state));
  return Val_unit;
}

/* Bytecode entry points of the externals with untagged arguments. */
CAMLprim value mrdb_memsim_touch_byte(value state, value stats, value addr,
                                      value width, value is_write)
{
  return mrdb_memsim_touch(state, stats, Long_val(addr), Long_val(width),
                           is_write);
}

CAMLprim value mrdb_memsim_touch_run_byte(value *argv, int argc)
{
  (void)argc;
  return mrdb_memsim_touch_run(argv[0], argv[1], Long_val(argv[2]),
                               Long_val(argv[3]), Long_val(argv[4]),
                               Long_val(argv[5]), argv[6]);
}
