(** Common shape of a benchmark workload. *)

type query = {
  name : string;
  description : string;
  freq : float;  (** relative execution frequency in the mix *)
  sql : string;
      (** the query text: parsed against the workload's catalog once, when
          the query is built, and planned by [make_plan] *)
  make_plan : use_indexes:bool -> Relalg.Physical.t;
      (** plans the parsed [sql] against the workload's catalog *)
  params : Storage.Value.t array;
  modifies : bool;
}

val plans :
  ?use_indexes:bool -> query list -> (Relalg.Physical.t * float) list
(** (plan, frequency) pairs for the optimizer / cost model. *)
