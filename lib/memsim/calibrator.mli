(** The "configuring experiment" of Section VI-A (Fig. 8).

    Sums a constant number of values drawn from memory regions of growing
    size and reports the cost per access.  When the region exceeds a cache
    level's capacity the per-access cost climbs to the next plateau, exposing
    the level's latency — exactly how the paper derives Table III. *)

type point = {
  region_bytes : int;
  cycles_per_access : float;
  accesses : int;
}

val run_random : ?accesses:int -> Params.t -> point list
(** Random permutation walk (pointer-chase style) over regions of 1 KiB to
    32 MiB, doubling: defeats the prefetcher, so plateaus show the full
    (non-hidden) latencies. *)

val run_sequential : ?accesses:int -> Params.t -> point list
(** Sequential scan of the region (wrapping): prefetching hides most LLC
    latency; included to contrast with {!run_random}. *)

val fit_latencies : Params.t -> point list -> (string * int) list
(** [fit_latencies params points] recovers per-level incremental latencies
    from the plateaus of a {!run_random} curve: for each level the measured
    cost at a region size comfortably inside it, minus the previous plateau.
    Returns [(level name, estimated latency)] pairs ending with ["Memory"]. *)
