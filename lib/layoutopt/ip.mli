(** Amossen-style exact vertical partitioning: the attribute×fragment
    integer program ("Vertical partitioning of relational OLTP databases
    using integer programming") solved by branch and bound over set
    partitions.

    The objective is separable per fragment: each query term (an access
    descriptor weighted by query frequency) pays one access-pattern atom
    per fragment it touches, with the fragment tuple width as the region
    width and the width of the attributes it actually reads as the used
    width.  Because every atom cost is monotone in the fragment width,
    the cost of a partial assignment — evaluated at the current fragment
    widths, plus the isolated-attribute minimum for terms not yet touching
    any fragment — is an admissible lower bound, which is what lets the
    search prune without losing exactness.

    Unlike {!Bpi}, the search is not restricted to reasonable cuts: it
    ranges over the full set-partition lattice (restricted-growth-string
    enumeration), so on small tables it is exactly optimal for the stated
    objective.  A cap of 200,000 search nodes bounds the search on wide
    tables, degrading to an anytime solver that still returns the best
    partitions found. *)

type term = {
  attrs : int list;  (** attribute indices the descriptor touches *)
  weight : float;  (** query frequency *)
  kind : Costmodel.Emit.access_kind;
  touches : int;  (** item accesses behind the descriptor *)
}

type problem = {
  n_attrs : int;
  widths : int array;  (** stored width of each attribute, bytes *)
  rows : int;
  terms : term array;
  params : Memsim.Params.t;
}

type stats = {
  nodes_visited : int;
  bounds_pruned : int;
  evaluations : int;  (** full objective evaluations (leaves reached) *)
}

val problem_of_workload :
  ?estimate:(Relalg.Expr.t -> float option) ->
  ?params:Memsim.Params.t ->
  Storage.Catalog.t ->
  string ->
  (Relalg.Physical.t * float) list ->
  problem
(** Build the integer program for one table from a frequency-weighted
    workload: plans are emitted once and their access descriptors become
    the cost terms. *)

val objective : problem -> int list list -> float
(** Cost of a complete partitioning under the IP objective.  Groups may be
    given in any order; the same summation order is used internally by
    {!solve} and {!brute_force}, so their costs are directly comparable. *)

val solve : problem -> (int list list * float) list * stats
(** Branch and bound.  Returns up to 8 partitionings in ascending
    cost order (normalized: groups sorted, attrs ascending).  The head of
    the list is exactly optimal for {!objective} when the node budget is
    not exhausted (anytime otherwise); the tail is a candidate frontier —
    good layouts worth re-costing under the full model, not a certified
    top-k. *)

val brute_force : problem -> int list list * float
(** Enumerate every partition of the attribute set and return the cheapest
    — the test oracle for {!solve}.  Exponential (Bell numbers): only for
    small [n_attrs]. *)
