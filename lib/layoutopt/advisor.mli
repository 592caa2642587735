(** The online layout advisor — the paper's Section VII direction
    ("online/adaptive reorganization of the decomposition strategy") as the
    hybrid-store advisor loop of Rösch et al. on top of {!Optimizer}.

    Executed plans are recorded into a bounded sliding window (newest
    first); every [check_every] observations the advisor re-solves the
    partitioning problem for every touched table against the *observed* mix
    and repartitions when the projected cycles saved over [horizon] windows
    beat {!copy_cost} (and the relative saving clears [min_benefit]).
    Repartitions run inside {!Storage.Catalog.in_txn}, so the WAL frames
    the layout change (crash recovery replays or drops it atomically) and
    logical row ids are preserved (MVCC snapshots built before the
    repartition stay readable).  Observations feed the {!Obs.Metrics}
    registry ([mrdb_advisor_observed_total], [mrdb_advisor_window_size]),
    so the live query mix the advisor acts on is visible through the same
    metrics stream as everything else. *)

type recommendation = {
  table : string;
  current_layout : Storage.Layout.t;
  proposed_layout : Storage.Layout.t;
  current_cost : float;  (** workload cost under the stored layout *)
  proposed_cost : float;  (** workload cost under the proposed layout *)
  copy_cost : float;  (** one-off reorganization cost ({!copy_cost}) *)
  net_saving : float;
      (** (current - proposed) × horizon − copy_cost, in model cycles *)
  profitable : bool;
      (** true when the advisor would (or did) repartition this table *)
  search : Bpi.stats;
}

type t

val create :
  ?algorithm:Optimizer.algorithm ->
  ?window:int ->
  ?check_every:int ->
  ?min_benefit:float ->
  ?horizon:float ->
  Storage.Catalog.t ->
  t
(** [algorithm] — the layout search (default [Ip]); [window] — how many
    recent plans form the observed workload (default 256); [check_every] —
    advise after this many observations (default 64); [min_benefit] —
    required relative improvement (default 0.05); [horizon] — how many
    times the observed window is assumed to repeat when amortizing the
    reorganization cost (default 10). *)

val observed : t -> int
(** Plans observed so far (not bounded by the window). *)

val mix : t -> (Relalg.Physical.t * float) list
(** The window collapsed to (plan, frequency) pairs — structurally
    identical plans merged by their printed form, most recently observed
    distinct plan first.  The shape {!Costmodel.Model.workload_cost} and
    {!Optimizer.optimize} expect. *)

val copy_cost : Storage.Catalog.t -> string -> float
(** Model estimate of repartitioning the named table under its stored
    layout (sequential read plus sequential write of every partition; 0
    for an empty table). *)

val recommend :
  ?algorithm:Optimizer.algorithm ->
  ?min_benefit:float ->
  ?horizon:float ->
  Storage.Catalog.t ->
  (Relalg.Physical.t * float) list ->
  recommendation list
(** One-shot advice for a static frequency-weighted mix (the [advise] CLI
    path): one recommendation per touched table ({!Optimizer.tables}),
    profitable or not.  Never mutates the catalog. *)

val advise : t -> recommendation list
(** {!recommend} against the currently observed {!mix}. *)

val apply : t -> recommendation list -> recommendation list
(** Repartition every profitable recommendation, each inside its own
    catalog transaction; returns the ones actually applied (layout still
    as the recommendation expected). *)

val observe : t -> Relalg.Physical.t -> recommendation list
(** Record one executed plan; every [check_every] observations run
    {!advise} and {!apply}, returning the repartitions performed (usually
    []). *)

val applied : t -> recommendation list
(** Every repartition this advisor has performed, oldest first. *)
