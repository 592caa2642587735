(** Process-wide metrics registry: typed counters, gauges and histograms
    with Prometheus-text and JSON export.

    Registration is idempotent — asking for a name that already exists
    returns the existing instrument (so library modules can register at
    first use without coordinating) — but re-registering a name as a
    different instrument type raises.  Counters are lock-free
    ([Atomic]); gauges and histograms take a registry lock, so every
    instrument is safe to touch from parallel worker domains. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> ?buckets:float list -> string -> histogram
(** [buckets] are upper bounds (a [+Inf] bucket is always appended);
    default buckets are exponential from 1e-6 to ~16s, suiting both
    second-scale timings and unit counts. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h p] estimates the [p]-th percentile ([0..100]) from the
    bucket counts, Prometheus-style: linear interpolation inside the
    bucket that holds the rank.  0 for an empty histogram. *)

val histogram_count : histogram -> int

val to_prometheus : unit -> string
(** Prometheus text exposition format, metrics in registration order. *)

val to_json : unit -> Json.t
(** [{ "metrics": [ {name; type; help; ...} ] }] — same data as
    {!to_prometheus}; parses back with {!Json.parse} losslessly. *)

val export : string -> unit
(** Write the registry to a file: {!to_prometheus}'s text for a path that
    ends in [.prom], {!to_json} otherwise. *)

val reset_values : unit -> unit
(** Zero every registered instrument (registry membership unchanged).
    For tests and for per-run exports from long-lived processes. *)
