(** Physical plans: logical operators annotated with access paths,
    selectivity and cardinality estimates.

    The estimates drive both the JiT "code generator" (which needs nothing
    beyond the structure) and the access-pattern emission of the cost model
    (which needs selectivities and cardinalities — Section IV-D). *)

type access =
  | Full_scan
  | Index_eq of { attrs : int list; keys : Expr.t list }
      (** point lookup through a hash (or ordered) index on [attrs] *)
  | Index_range of { attr : int; lo : Expr.t; hi : Expr.t }

type t =
  | Scan of { table : string; access : access; post : Expr.t option; sel : float }
      (** [post] is the residual predicate evaluated during the scan; [sel]
          is the fraction of stored tuples surviving it (or fetched through
          the index). *)
  | Select of { child : t; pred : Expr.t; sel : float }
  | Project of { child : t; exprs : (Expr.t * string) list }
  | Hash_join of {
      build : t;
      probe : t;
      build_keys : int list;
      probe_keys : int list;
      match_sel : float;  (** fraction of probe tuples finding a match *)
    }
  | Group_by of {
      child : t;
      keys : (Expr.t * string) list;
      aggs : Aggregate.t list;
      n_groups : float;
    }
  | Sort of { child : t; keys : (int * Plan.dir) list }
  | Limit of { child : t; n : int }
  | Insert of { table : string; values : Expr.t list }
  | Update of {
      table : string;
      access : access;
      post : Expr.t option;
      assignments : (int * Expr.t) list;
      sel : float;
    }

val schema : Storage.Catalog.t -> t -> Storage.Schema.attr array

val cardinality : Storage.Catalog.t -> t -> float
(** Estimated output rows. *)

val pp : Format.formatter -> t -> unit
