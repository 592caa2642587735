(** The reference tracer: the original (pre-batching) per-word cache walk,
    kept verbatim as an independent oracle for [Memsim.Hierarchy]'s batched
    walk, prefetcher included: it shares no code with that walk, only
    [Params] and [Stats].  Every counter and cycle total it produces must be
    byte-identical to the batched walk's on the same access stream; only its
    wall clock differs. *)

val walker : Memsim.Params.t -> Memsim.Stats.t -> Memsim.Hierarchy.walker
(** [walker params stats] is a fresh, empty reference walk with [params]'
    geometry that counts into [stats]: [touch] probes the TLB and the
    caches once per L1-line group of words, and [touch_run] is the plain
    per-access loop over [touch]. *)

val hierarchy : ?params:Memsim.Params.t -> unit -> Memsim.Hierarchy.t
(** A hierarchy whose every traced access runs on {!walker}. *)
