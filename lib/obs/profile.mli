(** Ambient span collection — the write side of {!Span}.

    A profiling {e session} is installed per domain (OCaml 5 domain-local
    state); the execution engines bracket operator work with {!op} and
    {!phase}, which attribute the hierarchy-counter delta since the last
    bracket boundary to the innermost open span ({e self-time}
    accounting).  With no session installed every bracket is a single
    domain-local load and a branch, and the simulated counters are
    untouched either way — profiling never perturbs a measurement, it
    only reads it.

    Sessions nest per domain: {!start} saves the currently installed
    session and {!stop} restores it, which is how the morsel-parallel
    executor gives every worker domain (including the one the query
    arrived on) its own sub-profile against its private hierarchy. *)

type session

val on : unit -> bool
(** A session is installed on the calling domain. *)

val start :
  ?hier:Memsim.Hierarchy.t -> ?label:string -> unit -> session
(** Install a fresh session.  [hier] is the hierarchy whose counters are
    attributed; without it spans only count calls. *)

val stop : session -> Span.profile
(** Flush, uninstall (restoring the previously installed session), and
    return the collected profile. *)

val profiled :
  ?hier:Memsim.Hierarchy.t ->
  ?label:string ->
  (unit -> 'a) ->
  'a * Span.profile
(** [start] / run / [stop], exception-safe. *)

val resync : unit -> unit
(** Re-base the session's counter mark on the hierarchy's current
    counters without attributing the delta anywhere.  Called by the
    engines right after they reset counters for a measured run, so a
    session started before [run_measured] doesn't see a negative delta. *)

val op : id:string -> label:string -> (unit -> 'a) -> 'a
(** Bracket one plan operator's work; [id] is the {!Span} path id.
    Re-entrant and exception-safe; repeated calls with the same id
    accumulate into one node. *)

val phase : string -> (unit -> 'a) -> 'a
(** Bracket a named execution phase of the innermost open span
    (["build"], ["probe"], ["sort"], ...). *)

val phase_at : id:string -> string -> (unit -> 'a) -> 'a
(** Like {!phase} but naming the owning span explicitly.  Push-based
    engines need this: an operator's per-row work runs inside its plan
    {e child}'s dynamic extent, so the innermost open span is not the
    operator the phase belongs to. *)

val annotate : id:string -> string -> unit
(** Append a note to the label of an existing span of the current session
    (no-op without a session or span) — e.g. the verdict of a decision
    taken inside a phase, shown on that phase's line. *)

val add_domains : Span.profile list -> unit
(** Attach finished per-worker-domain profiles to the calling domain's
    session (no-op without one). *)
