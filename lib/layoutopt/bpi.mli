(** The BPi branch-and-bound decomposition algorithm (Chu & Ieong, as used
    in Section V-A).

    Starting from the undecomposed relation, cuts are considered one at a
    time; a cut whose estimated improvement exceeds [threshold] (relative to
    the current cost) opens two branches (include / exclude), anything below
    is pruned.  With [threshold = 0] and few cuts this degenerates to the
    exact OBP search; larger thresholds trade optimality for search cost. *)

type stats = { cost_evaluations : int; nodes_visited : int }

val optimize :
  cost:(int list list -> float) ->
  n_attrs:int ->
  cuts:Cut.t list ->
  threshold:float ->
  int list list * float * stats
(** [optimize ~cost ~n_attrs ~cuts ~threshold] returns the best partitioning
    found (as attribute groups), its cost, and search statistics.  [cost]
    evaluates a candidate partitioning (typically through the cost model). *)
