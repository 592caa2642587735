(** A single set-associative LRU cache level operating on line numbers.

    The cache does not store data, only tags: the simulator is a timing and
    miss-count model, the actual bytes live in {!Storage.Buffer} byte arrays.

    Each set is kept in recency order, most recently used way first, as one
    tag word per way ([line lsl 1 lor pending], -1 for an invalid way).  A
    hit moves its word to the front; a miss shifts the set one way towards
    the tail and drops the tail word, which is an invalid way if the set has
    one and the least recently used line otherwise.  Re-probing the front
    line therefore changes nothing.  Line numbers are non-negative.

    [t] is a plain level (L1, L2, TLB): a small one, and the L1 is probed
    on every simulated access, so it carries nothing beyond its tag words.
    {!Llc} is the last level, which alone keeps pending bits, takes
    prefetches, and clears in constant time. *)

type t

val create : Params.level -> t
(** [create level] builds an empty cache with [level]'s geometry.  Capacities
    that are not an exact multiple of [block * assoc] are rounded down to at
    least one set. *)

val block_bits : t -> int
(** log2 of the block size: [line = addr lsr block_bits t]. *)

val access : t -> int -> bool
(** [access t line] looks up [line] and makes it the set's most recently
    used line; on a miss the line is inserted, evicting the LRU way of its
    set.  Returns [true] on a hit. *)

val mem : t -> int -> bool
(** [mem t line] is a lookup without any side effect. *)

val clear : t -> unit
(** Invalidate every way: one [Array.fill] over the level's [sets * assoc]
    tag words (4,096 for the Nehalem L1 or L2, 8 for its TLB). *)

(** The last-level cache.  Its geometry and tag words are a plain level's;
    on top it keeps a pending-prefetch bit per way and a stamp per set.

    {!clear} starts a new epoch instead of writing the tag words, so it
    costs the same for the Nehalem L3's 131,072 words as for any other
    geometry.  The first {!access_pending} or {!prefetch} of a set whose
    stamp predates the epoch writes its ways invalid and restamps it; {!mem}
    reads such a set as empty.  Every probe therefore sees the set a fill
    of all tag words at {!clear} would have left. *)
module Llc : sig
  type t

  val create : Params.level -> t
  (** As the plain {!Cache.create}, with every set stamped current. *)

  val block_bits : t -> int

  type probe = Miss | Hit | Hit_pending

  val access_pending : t -> int -> probe
  (** Like the plain {!Cache.access}, but also reads and clears the line's
      "pending prefetch" bit, kept in its tag word instead of an unbounded
      hash set of prefetched lines.  [Hit_pending] is returned exactly once
      per prefetch: on the first demand touch of a line filled by
      {!prefetch}.  A demand fill writes a clear bit and an evicted line
      takes its bit with it, so pendingness tracks residency exactly. *)

  val prefetch : t -> int -> bool
  (** [prefetch t line] fills an absent [line] as the set's most recently
      used line with its pending bit set, and returns [true].  A resident
      line is left as it is — recency and pending bit unchanged — and the
      result is [false]. *)

  val mem : t -> int -> bool
  (** [mem t line] is a lookup without any side effect: it changes no
      recency, no pending bit and no stamp. *)

  val clear : t -> unit
  (** Invalidate every way in O(1): bump the epoch.  The sets are written
      lazily, each by the next probe that may change it. *)
end
