(** Counters collected by the hierarchy simulator.

    The distinction between [llc_seq_misses] (lines that were prefetched
    before their first demand access — "sequential misses" in the paper's
    terminology) and [llc_rand_misses] (demand misses) mirrors what the paper
    reads from the Nehalem performance counters in Section IV-C1.

    The cache walk ([memsim_walk.c]) adds into the fields of a live [t] by
    position, [accesses] to [mem_cycles]: keep their order. *)

type t = {
  mutable accesses : int;  (** word-granularity memory operations *)
  mutable reads : int;
  mutable writes : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable llc_accesses : int;  (** accesses that reached the LLC lookup *)
  mutable llc_seq_misses : int;  (** first demand touch of a prefetched line *)
  mutable llc_rand_misses : int;  (** demand misses served by memory *)
  mutable tlb_misses : int;
  mutable prefetches : int;  (** prefetch requests issued *)
  mutable mem_cycles : int;  (** cycles spent in the memory hierarchy *)
  mutable cpu_cycles : int;  (** cycles charged explicitly by execution engines *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] is the counter delta between two snapshots. *)

val total_cycles : t -> int
(** Memory plus CPU cycles. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val merge : t -> t -> t
(** Compose the counters of two {e concurrent} executions (one per worker
    domain of a parallel query): traffic and miss counters are summed, while
    [mem_cycles] and [cpu_cycles] are taken from the slower operand — the
    critical path, i.e. the simulated analogue of wall-clock time.  The
    slower operand is chosen by comparing [(total_cycles, mem_cycles,
    cpu_cycles)] lexicographically, which makes [merge] associative and
    commutative (ties included). *)

val pp : Format.formatter -> t -> unit
