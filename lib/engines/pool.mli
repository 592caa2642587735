(** Persistent worker-domain pool for the morsel executor.

    Domains are spawned lazily on first use and parked between queries, so
    a parallel query pays one lock/signal hand-off per worker instead of a
    [Domain.spawn] — the dominant fixed cost behind the 0.58x two-domain
    wall-clock regression this PR removes.  Workers are joined via an
    [at_exit] hook. *)

val parallel_run : domains:int -> (int -> unit) -> unit
(** [parallel_run ~domains f] runs [f 0 .. f (domains-1)], share 0 on the
    calling domain and the rest on pool workers, and returns when all are
    done.  The first exception raised by any share is re-raised (after all
    shares finished).  Nested calls run inline sequentially. *)
