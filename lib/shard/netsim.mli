(** The simulated interconnect cost model: per-message latency and per-byte
    bandwidth atoms in the same CPU-cycle currency as the Table III cache
    atoms, so the planner can weigh network bytes against local cache
    traffic directly.  Counters also feed the [mrdb_shard_net_*] members of
    the {!Obs.Metrics} registry. *)

type params = {
  latency_cycles : int;  (** fixed cost per message (the hop latency) *)
  cycles_per_byte : int;  (** bandwidth term, cycles per payload byte *)
}

type t

val create : unit -> t
(** An interconnect of ~1 µs hop latency at 2.67 GHz (2670 cycles) and
    ~10 Gbit/s of bandwidth (2 cycles/byte). *)

val params : t -> params

val coordinator : int
(** The coordinator's pseudo node id ([-1]), distinct from every shard. *)

val send : t -> src:int -> dst:int -> bytes:int -> unit
(** Account one message of [bytes] payload.  [src = dst] is a local handoff
    and costs nothing. *)

val cost_of : params -> messages:int -> bytes:int -> int
(** [messages * latency + bytes * cycles_per_byte]: the cost of traffic,
    sent or hypothetical — the planner's what-if evaluation of shuffle vs
    broadcast. *)

(** {2 Scoped deltas} *)

type snapshot

val snapshot : t -> snapshot

val since : t -> snapshot -> int * int * int
(** [(messages, bytes, cycles)] accumulated since the snapshot. *)
