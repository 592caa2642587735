(** Span data: where a query's simulated cycles and cache misses went.

    A profile is a flat set of nodes keyed by a stable {e span id}; the
    tree shape is encoded in the ids so collection never has to mirror an
    engine's dynamic call structure (push-based engines run a plan
    {e parent} inside a plan {e child}'s dynamic extent):

    - [""] — the query root;
    - ["0"], ["0.1"], ["0.1.0"] — plan operators, by path in the physical
      operator tree (child [i] appends [.i]);
    - ["0.1#build"] — a named execution phase of operator ["0.1"].

    Every node accumulates {e self} counters only — the exact counter
    delta attributed while that span was the innermost open one — so the
    sum of all nodes equals the whole query's counters, and per-operator
    inclusive cost is recovered from the id prefixes.  Parallel runs hang
    one sub-profile per worker domain off the parent profile. *)

type kind = Query | Op | Phase

type node = {
  id : string;
  mutable label : string;
  kind : kind;
  mutable calls : int;
  self : Memsim.Stats.t;  (** exclusive counters *)
}

type profile = {
  label : string;
  nodes : node list;  (** creation order; first node is the root ([""]) *)
  domains : profile list;  (** per-worker-domain sub-profiles *)
}

val root_id : string
(** [""]. *)

val child : string -> int -> string
(** [child "0.1" 0 = "0.1.0"]; [child root_id 0 = "0"]. *)

val phase_id : string -> string -> string
(** [phase_id "0.1" "build" = "0.1#build"]. *)

val parent_id : string -> string option
(** Inverse of {!child}/{!phase_id}; [None] for the root. *)

val under : string -> string -> bool
(** [under prefix id]: [id] is [prefix] or a descendant of it. *)

val find : profile -> string -> node option

val total : profile -> Memsim.Stats.t
(** Sum of every node's self counters (this profile only, not [domains]) —
    equals the whole query's counters for a sequential run. *)

val inclusive : profile -> string -> Memsim.Stats.t
(** Sum of self counters over the subtree rooted at the given id,
    including matching nodes of all domain sub-profiles. *)

val pp : Format.formatter -> profile -> unit
(** Indented tree with per-node cycles and miss counters. *)
