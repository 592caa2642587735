(* The simulated interconnect: the network as one more tier of the memory
   hierarchy.  Table III gives per-level cache atoms; a message here costs a
   fixed latency atom plus a per-byte bandwidth atom, both in the same CPU
   cycles the memsim reports, so distributed plans and local plans price in
   one currency.

   The defaults model a ~1 microsecond interconnect hop at Nehalem's
   2.67 GHz (2670 cycles per message) and ~10 Gbit/s of bandwidth
   (2.67e9 cycles / 1.25e9 bytes ≈ 2 cycles per byte) — three orders of
   magnitude above the 12-cycle memory atom, which is exactly why the
   distributed planner must weigh network bytes so much more heavily than
   local cache traffic. *)

type params = {
  latency_cycles : int;  (** fixed cost per message (the hop latency) *)
  cycles_per_byte : int;  (** bandwidth term, cycles per payload byte *)
}


type t = {
  params : params;
  mutable messages : int;
  mutable bytes : int;
}

let m_messages =
  Obs.Metrics.counter "mrdb_shard_net_messages_total"
    ~help:"Inter-shard messages sent over the simulated interconnect"

let m_bytes =
  Obs.Metrics.counter "mrdb_shard_net_bytes_total"
    ~help:"Inter-shard payload bytes sent over the simulated interconnect"

let create () =
  {
    params = { latency_cycles = 2670; cycles_per_byte = 2 };
    messages = 0;
    bytes = 0;
  }

let params t = t.params

(* The coordinator's pseudo node id, distinct from every shard. *)
let coordinator = -1

let send t ~src ~dst ~bytes =
  if src <> dst then begin
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    Obs.Metrics.incr m_messages;
    Obs.Metrics.add m_bytes bytes
  end

let cost_of params ~messages ~bytes =
  (messages * params.latency_cycles) + (bytes * params.cycles_per_byte)

type snapshot = { msg : int; byt : int }

let snapshot t = { msg = t.messages; byt = t.bytes }

let since t { msg; byt } =
  let messages = t.messages - msg and bytes = t.bytes - byt in
  (messages, bytes, cost_of t.params ~messages ~bytes)
