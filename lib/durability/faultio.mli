(** Fault-injectable storage for the durability subsystem.

    An [env] is a small set of named byte stores — backed by real files (the
    CLI) or in-memory buffers (the recovery harness).  Sink writes are
    buffered; only {!flush} makes bytes durable.  A {!plan} can simulate a
    process crash at any write/flush/truncate/rename boundary (each is one
    numbered {e crash point}), optionally letting a prefix of the un-flushed
    tail survive — torn writes and partial flushes.  Deterministic: the same
    plan over the same workload crashes at the same byte.

    Every boundary also has a stable {e name} ("write:wal", "flush:wal",
    "rename:snapshot", "txn.pre_commit", ...).  {!At_point} pins a crash to
    the k-th occurrence of a name, which — unlike positional {!Crash_at}
    indices — stays valid when new commit-path points are inserted, so
    pinned recovery seeds keep replaying the same boundary. *)

exception Crash of string
(** Simulated process death.  The workload driver catches it, drops all live
    state, and runs recovery against the env's durable contents. *)

type plan =
  | Reliable
  | Crash_at of { point : int; torn : float }
      (** die at the [point]-th crash point (1-based); [torn] ∈ [0,1] is the
          fraction of the un-flushed tail that becomes durable anyway. *)
  | At_point of { name : string; nth : int; torn : float }
      (** die at the [nth]-th occurrence (1-based) of the named point;
          insertion-stable (see above). *)
  | Seeded of { seed : int; mean_period : int }
      (** crash roughly every [mean_period] points with pseudo-random torn
          fraction; deterministic for a fixed seed. *)

type t

val memory : ?plan:plan -> unit -> t
val files : ?plan:plan -> path:(string -> string) -> unit -> t
(** [files ~path] stores [name] at file [path name].  A file operation the
    system refuses (a missing directory, an unwritable file) raises
    {!Mrdb_util.Errors.Io_error} with the system's message. *)

val in_dir : ?plan:plan -> string -> t
(** File backend mapping store [name] to [dir/name]. *)

val set_plan : t -> plan -> unit
val points : t -> int
(** Crash points passed so far (for enumerating them exhaustively). *)

val reset_points : t -> unit
(** Zero both the positional counter and every per-name occurrence count. *)

val named_points : t -> (string * int) list
(** Occurrences passed so far per point name, sorted by name — the stable
    enumeration a crash-matrix test iterates instead of raw indices. *)

val point : t -> string -> unit
(** An explicit logical crash point (no bytes of its own): counts as one
    boundary under the given name and raises {!Crash} if the plan says so.
    The commit path inserts these at its pre/post-commit boundaries. *)

(** {2 Durable reads and store management} *)

val read_all : t -> string -> Bytes.t option
val durable_size : t -> string -> int
val rename : t -> src:string -> dst:string -> unit
(** Atomic; one crash point (the crash lands before or after, never mid). *)

val corrupt_byte : t -> string -> int -> unit
(** Flip every bit of the byte at the given durable offset (test helper
    modeling checksum-detectable bit rot). *)

val truncate_store : t -> string -> int -> unit
(** Cut the durable store to a byte prefix in place: recovery cuts a torn
    log with it, tests model short reads / lost tails. *)

(** {2 Sinks} *)

type sink

val create : ?pending:Bytes.t -> t -> string -> sink
(** Truncate the store and open it for writing (one crash point).  With
    [pending], that buffer holds the sink's un-flushed bytes: a write of
    bytes already at their place in it is not copied, and a flush into an
    empty in-memory store hands the buffer over whole.  The caller must not
    modify it afterwards. *)

val append : t -> string -> sink
(** Open the store for appending. *)

val write_sub : sink -> Bytes.t -> pos:int -> len:int -> unit
(** Buffer [len] bytes of the given bytes from [pos] (one crash point; a
    crash may tear the buffered tail). *)

val write : sink -> string -> unit
(** {!write_sub} of a whole string. *)

val flush : sink -> unit
(** Make all buffered bytes durable (one crash point).  An empty in-memory
    store takes the buffer over instead of copying it. *)

val close : sink -> unit
