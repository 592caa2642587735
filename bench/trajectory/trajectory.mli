(** The normalized benchmark-trajectory schema.

    Every bench run writes one flat shape: a list of points
    [(bench, metric, value, unit)] plus run-level provenance
    ([schema_version], [commit]).  That single schema is what
    [bench/report.exe] consolidates, diffs between runs, and gates in CI.
    A boolean check is a point of value 0 or 1 with unit ["bool"], which
    is how identity checks like the tracefast bench's
    [counters_identical] become gateable metrics. *)

type point = {
  bench : string;
  metric : string;
  value : float;
  unit_ : string;  (** "" when unknown *)
}

type run = {
  schema_version : int;
  commit : string;  (** "" when unknown *)
  points : point list;
}

val schema_version : int

val point : bench:string -> metric:string -> ?unit_:string -> float -> point
val make_run : ?commit:string -> point list -> run

val to_json : run -> Obs.Json.t
val of_json : Obs.Json.t -> run
(** Raises [Failure] on shape mismatch. *)

val save : string -> run -> unit
val load : string -> run

(** {1 Diffing} *)

type delta = {
  key : string;  (** ["bench/metric"] *)
  before : float option;
  after : float option;
  ratio : float option;  (** [after /. before] when both exist and before <> 0 *)
}

val diff : baseline:run -> run -> delta list
(** One delta per key present in either run, sorted by key. *)

(** {1 Regression gates} *)

type direction = Up_is_bad | Down_is_bad

type gate = {
  pattern : string;  (** glob over ["bench/metric"]; [*] matches any run *)
  direction : direction;
  max_regress : float option;
      (** allowed relative drift vs baseline, e.g. [0.10] = 10% *)
  max_value : float option;
  min_value : float option;
}

type violation = { gate : gate; point : point; reason : string }

val glob_match : pattern:string -> string -> bool
val gates_of_json : Obs.Json.t -> gate list
(** [{ "gates": [ {pattern; direction?; max_regress?; max_value?;
    min_value?} ] }]; [direction] is ["up_is_bad"] (default) or
    ["down_is_bad"]. *)

val check : gates:gate list -> ?baseline:run -> run -> violation list
