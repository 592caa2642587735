(** Aggregate functions for group-by operators. *)

type func = Count_star | Count | Sum | Min | Max | Avg

type t = {
  func : func;
  expr : Expr.t option;  (** [None] only for [Count_star] *)
  name : string;  (** output column name *)
}

val make : func -> ?expr:Expr.t -> string -> t

(** Mutable accumulation state, one per (group, aggregate). *)
type state

val init : func -> state
val step : state -> Storage.Value.t -> unit

val step_int : state -> date:bool -> int -> unit
(** [step_int st ~date v] is [step st] of [v] boxed as a [VDate] when
    [date], a [VInt] otherwise, for a state that only ever steps values of
    that kind; it boxes nothing unless a min or max keeps [v]. *)

val step_n : state -> Storage.Value.t -> int -> unit
(** [step_n st v k] accumulates [v] [k] times, exactly equal to [k] calls of
    {!step}: counts and integer sums take the closed form, min/max step
    once, float sums repeat the addition (floating-point rounding identity
    with the per-row path). *)

val finish : state -> Storage.Value.t

val output_type : t -> (int -> Storage.Value.ty) -> Storage.Value.ty
(** Result type given the input column types. *)

(** {1 Parallel decomposition}

    A morsel-parallel group-by evaluates each aggregate per morsel and
    combines the finished partial values across morsels.  All functions but
    [avg] are directly mergeable; [avg] is decomposed into sum and count and
    recombined at the end. *)

val decompose : t -> t list
(** The mergeable partial aggregates that stand in for [t] inside a
    per-morsel plan: [avg e] becomes [[sum e; count e]], everything else is
    [[t]] unchanged. *)

val merge_value : func -> Storage.Value.t -> Storage.Value.t -> Storage.Value.t
(** [merge_value f a b] combines two finished partial values of a mergeable
    aggregate: counts add, sums add (with [Null] as neutral element), min
    and max compare, earlier-morsel operand winning ties.  Partials must be
    merged in morsel order so first-occurrence semantics match a sequential
    run.  @raise Invalid_argument on [Avg] — decompose it first. *)

val recombine : t -> Storage.Value.t array -> Storage.Value.t
(** [recombine t partials] produces the final value of [t] from its merged
    {!decompose} partials (in decomposition order): reconstructs [avg] from
    sum and count, and is the identity for every other function. *)

val pp : Format.formatter -> t -> unit
