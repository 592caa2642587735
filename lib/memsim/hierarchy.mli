(** The composed memory-hierarchy simulator.

    Every data-plane byte the database engines touch flows through {!read} or
    {!write}; the simulator walks TLB / L1 / L2 / LLC, consults the
    prefetcher, and accounts cycles per Table III of the paper.  Execution
    engines additionally charge instruction costs through {!add_cpu} — the
    paper's two performance dimensions (cache efficiency and CPU efficiency)
    are thus two separate counters of one {!Stats.t}.

    {2 The model}

    Each level (L1, L2, LLC and the TLB) is set-associative with LRU
    replacement over line numbers ([addr lsr log2 block]).  It stores no
    data, only tags: the bytes live in [Storage.Buffer] byte arrays.  Each
    set is kept in recency order, most recently used way first, as one tag
    word per way ([line lsl 1 lor pending], -1 for an invalid way).  A hit
    moves its word to the front; a miss shifts the set one way towards the
    tail and drops the tail word, which is an invalid way if the set has
    one and the least recently used line otherwise.  Re-probing the front
    line therefore changes nothing, which is what lets the walk skip a
    repeat probe of the L1 line, L2 line or TLB page it probed last.

    The LLC alone keeps the pending bit: a prefetch fills an absent line as
    its set's most recently used one with the bit set, and leaves a
    resident line as it is.  The first demand touch of a pending line
    clears the bit and counts a sequential miss ([Stats.llc_seq_misses]);
    a demand miss counts a random one.  A demand fill writes a clear bit and
    an evicted line takes its bit with it, so pendingness tracks residency.
    The prefetcher watches the LLC's demand lines in up to
    [Params.prefetch_streams] streams: an access adjacent to its stream's
    previous one prefetches the next line, and one that repeats the
    stream's stride prefetches a stride ahead (Section IV-A1).

    {!reset} clears the L1, L2 and TLB by writing their tag words invalid:
    4,096 words each for the Nehalem L1 and L2, 8 for its TLB.  The LLC
    (131,072 words) clears in O(1): a stamp per set records the epoch its
    ways were last made valid in, {!reset} starts a new epoch, and the first
    probe that may change a set stamped earlier writes its ways invalid
    first.  Every probe therefore sees what a fill of all tag words would
    have left.

    {2 The walk's boundary}

    The walk runs in C ([memsim_walk.c]).  {!read}, {!write}, {!read_run},
    {!write_run} and {!reset} are [[@@noalloc]] calls with untagged int
    arguments: they allocate nothing and cannot start a collection.  The
    walk adds its counts straight into the live {!Stats.t} that {!stats}
    returns, whose fields are immediate ints.  Its state (geometry, tag
    words, stamps, streams) is one [Bytes.t] owned by the OCaml heap, so a
    hierarchy needs no finalizer and each domain walks its own. *)

type t

type walker = {
  touch : addr:int -> width:int -> is_write:bool -> unit;
  touch_run :
    addr:int -> width:int -> count:int -> stride:int -> is_write:bool -> unit;
  clear : unit -> unit;
}
(** A replacement cache walk: [touch] traces one access, [touch_run] a run
    with [count > 0] and [width > 0] (see {!read_run}), and [clear] forgets
    every cache, TLB and prefetcher entry.  It counts into the {!Stats.t} it
    was built with. *)

val create :
  ?params:Params.t -> ?reference:(Params.t -> Stats.t -> walker) -> unit -> t
(** [create ()] uses {!Params.nehalem}.  Raises [Invalid_argument] for a
    geometry the walk cannot hold: other than three cache levels, an
    associativity below 1, a block that is not a power of two of at least
    8 bytes (the word every access is cut into), or prefetch streams
    outside [\[1, 64\]].  A capacity that is not a multiple of [block *
    assoc] is rounded down to at least one set.

    A test seam: with [reference], every traced access goes through the
    walker built from the params and the hierarchy's live counters instead
    of the batched walk, and {!reset} also calls its [clear].  The per-word
    oracle that the identity tests compare the batched walk against is such
    a walker. *)

val params : t -> Params.t

val read : t -> addr:int -> width:int -> unit
(** Simulate a load of [width] bytes at virtual address [addr].  The access is
    decomposed into 8-byte words, each probing the hierarchy.  Addresses are
    non-negative; the counts are exact while line numbers stay below
    2{^56}. *)

val write : t -> addr:int -> width:int -> unit
(** Simulate a store.  Timing model is identical to {!read} (write-allocate). *)

val read_run : t -> addr:int -> width:int -> count:int -> stride:int -> unit
(** [read_run t ~addr ~width ~count ~stride] simulates the access run

    {[ for i = 0 to count - 1 do read t ~addr:(addr + i * stride) ~width done ]}

    walking it line-by-line: one cache walk per distinct L1 line, one TLB
    lookup per distinct page, prefetcher observed at line granularity.  All
    counters and cycle totals are byte-identical to the per-word loop above —
    re-probing a line (or page) that the immediately preceding access just
    probed is a guaranteed hit on an already most recently used way, which
    changes nothing.  [count <= 0] or [width <= 0] is a
    no-op.  Negative strides and overlapping elements are supported. *)

val write_run : t -> addr:int -> width:int -> count:int -> stride:int -> unit
(** Store version of {!read_run}. *)

val add_cpu : t -> int -> unit
(** Charge [n] CPU cycles of instruction work (predicate evaluation, hashing,
    virtual-call overhead, ...). *)

val stats : t -> Stats.t
(** Live counters (mutable; use {!Stats.copy} for snapshots). *)

val snapshot : t -> Stats.t

val section : t -> (unit -> 'a) -> 'a * Stats.t
(** [section t f] runs [f] and returns its result together with the
    counter delta it produced (snapshot before, diff after).  Unlike
    {!reset_stats}-based measurement this is scoped: it composes with an
    enclosing measurement instead of destroying it, so callers can
    attribute counters to a region without owning the whole hierarchy. *)

val reset_stats : t -> unit
(** Zero the counters, keeping cache contents (to measure warm behaviour). *)

val reset : t -> unit
(** Zero counters and flush all caches, TLB, prefetcher state.  The cost
    does not grow with the LLC, which clears in O(1) (see the model above):
    only the L1, L2 and TLB tag words are written, 8,200 under
    {!Params.nehalem} against the LLC's 131,072. *)

val set_enabled : t -> bool -> unit
(** When disabled, {!read}, {!write} and {!add_cpu} are no-ops.  Used to
    exclude setup work (loading, repartitioning, index builds) from
    measurements, and for fast untraced wall-clock benchmarking. *)

val enabled : t -> bool

val without_tracing : t -> (unit -> 'a) -> 'a
(** Run a thunk with tracing disabled, restoring the previous state. *)

val untraced : t option -> (unit -> 'a) -> 'a
(** {!without_tracing} on the hierarchy when there is one; without one the
    thunk just runs.  For setup work on a catalog or relation that may
    carry no hierarchy. *)
