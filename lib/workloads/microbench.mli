(** The introductory example (Fig. 2, Fig. 3, Table Ib): a 16-attribute
    relation R(A..P) and the query

    {v select sum(B), sum(C), sum(D), sum(E) from R where A < $1 v}

    The paper uses [A = $1] with data chosen to produce a given selectivity;
    we fill A uniformly in [0, 1e6) and use a range predicate so the
    selectivity is exactly [$1 / 1e6] without regenerating data — the access
    pattern (one compared column, four conditionally summed) is identical. *)

val domain : int
(** Size of A's value domain (1e6). *)

val schema : Storage.Schema.t

val pdsm_layout : Storage.Layout.t
(** The paper's hand-optimized partitioning [{A},{B..E},{F..P}]. *)

val build : ?hier:Memsim.Hierarchy.t -> n:int -> unit -> Storage.Catalog.t
(** Catalog containing R with [n] tuples (row layout initially). *)

val plan : Storage.Catalog.t -> sel:float -> Relalg.Physical.t
(** The example query planned with the exact selectivity annotation. *)

val params : sel:float -> Storage.Value.t array
