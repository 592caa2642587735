(** Adjacent-cache-line prefetcher with stride detection.

    Models the strategy the paper assumes (Section IV-A1, Intel Core
    microarchitecture): a line is prefetched whenever the unit observes an
    access adjacent to the previous one, or a repeated constant stride.  The
    unit is deliberately cautious — a stride must be confirmed before any
    prefetch is issued, matching the paper's remark that real prefetchers
    follow defensive strategies.

    Streams live in flat arrays and both per-access scans (nearest stream,
    slot for a new stream) are branch-free; {!observe} allocates nothing. *)

type t

val create : streams:int -> t
(** [create ~streams] tracks up to [streams] (1 to 64) concurrent access
    streams.  A new stream takes the highest-index free slot, else the least
    recently used stream's. *)

val none : int
(** [-1]: {!observe}'s answer when nothing is to be prefetched. *)

val observe : t -> int -> int
(** [observe t line] records a demand access to LLC [line], joining the
    nearest stream whose last line is at most 64 lines away (the lowest
    index among equally near ones), and returns the line to prefetch now:
    - the access is adjacent to the stream's previous line (delta = 1):
      [line + 1];
    - the delta repeats the stream's detected stride: [line + stride].
    Otherwise, and for a repeated access to the stream's current line, it
    returns {!none}.  A negative result is never a line to prefetch. *)

val clear : t -> unit
