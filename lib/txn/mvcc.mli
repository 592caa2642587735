(** Snapshot-isolation MVCC over {!Storage.Catalog}.

    In-place base relations plus one version store: the stored state is
    the latest committed one; a transaction reads at its begin timestamp
    by resolving the versions newer than its snapshot, of cells (the
    values commits overwrote) and of row counts (before commits
    appended).  Versions are freed in commit order, so a commit pays for
    the versions it frees, not for those an open snapshot holds; each
    commit frees at most two queued commits beyond its own, so the
    backlog a long-held snapshot leaves drains over the commits that
    follow it, not all in one.  Only commits free: with no snapshot
    open, versions stay held until enough commits follow.  Writes buffer in the transaction and
    apply at commit under first-committer-wins — a commit whose write
    set overlaps a commit after its begin raises
    {!Mrdb_util.Errors.Txn_conflict} and applies nothing.  Reads are
    never validated: write skew is permitted (the SI anomaly boundary,
    see DESIGN.md §5h).

    Commit applies run inside [Catalog.in_txn], so with a durability
    manager attached each commit that writes is one transaction-framed,
    flushed WAL unit — the WAL and MVCC commit points coincide.  A commit
    with nothing to write opens no frame and logs nothing.

    All operations are thread-safe: one manager mutex guards each
    operation's critical section (logical MVCC over coarse physical
    latching — readers never block for a whole writer transaction, only
    for single ops). *)

type t
(** The manager: version store, commit clock, active-snapshot registry. *)

type txn

type status = Active | Committed of int | Aborted of string

val create : Storage.Catalog.t -> t
(** Manage transactions over [cat].  Once attached, all mutations of the
    catalog's relations must go through transactions of this manager:
    a cell written or a row appended outside it is seen at once by every
    snapshot, as no version records it. *)

val catalog : t -> Storage.Catalog.t

val clock : t -> int
(** Last assigned commit timestamp. *)

val begin_ : ?timeout:float -> t -> txn
(** Open a transaction reading at the current commit timestamp.  With
    [timeout] (seconds), any operation past the deadline aborts the
    transaction and raises {!Mrdb_util.Errors.Txn_timeout}; from the
    deadline on, even while idle, it holds no versions back.  Deadlines
    are judged on a manager clock that never moves back. *)

val begin_ts : txn -> int
val status : txn -> status

val read : txn -> string -> int -> int -> Storage.Value.t
(** [read txn table tid attr] at the transaction's snapshot, serving the
    transaction's own buffered writes first.
    @raise Mrdb_util.Errors.Bad_request if the row is not visible at the
    snapshot or the table has no attribute [attr]. *)

val visible_rows : txn -> string -> int
(** Rows visible at the snapshot (inserts are append-only, so a snapshot
    sees a prefix).  The transaction's own uncommitted inserts are not
    addressable until commit. *)

val column : txn -> string -> int -> Storage.Value.t array
(** [column txn table attr] is attribute [attr] of every row visible at
    the snapshot, as {!read} gives each — the analytics read path (one
    critical section per column, not per row).
    @raise Mrdb_util.Errors.Bad_request if the table has no attribute
    [attr]. *)

val update : txn -> string -> int -> int -> Storage.Value.t -> unit
(** Buffer an overwrite of [table[tid].attr]; applied at commit.
    @raise Mrdb_util.Errors.Bad_request if the row is not visible at the
    snapshot or the value does not fit the attribute
    ({!Storage.Write.check}); nothing is buffered. *)

val insert : txn -> string -> Storage.Value.t array -> unit
(** Buffer an append (full tuple, schema order); tuple ids are assigned at
    commit in write order.
    @raise Mrdb_util.Errors.Bad_request if the arity is wrong or a value
    does not fit its attribute; nothing is buffered. *)

val commit : txn -> int
(** Validate (first-committer-wins), apply, and return the commit
    timestamp.
    @raise Mrdb_util.Errors.Txn_conflict on write-write conflict (nothing
    applied, transaction aborted).
    @raise Mrdb_util.Errors.Bad_request if a buffered write no longer fits
    its attribute (the table's encoding changed since); nothing applied,
    transaction aborted. *)

val abort : txn -> unit
(** Discard buffered writes.  Idempotent on aborted transactions. *)

val run :
  ?retries:int ->
  ?timeout:float ->
  t ->
  (txn -> 'a) ->
  'a
(** Run [f] in a transaction and commit it, retrying conflicts up to
    [retries] times (default 8) with exponential backoff seeded with 1.
    Timeouts are never retried.  If [f] aborts its transaction, the result
    is returned without committing. *)

val snapshot : t -> (txn -> 'a) -> 'a
(** Read-only snapshot: begin, run [f], abort — never conflicts, writes
    nothing to the WAL. *)

val retained_versions : t -> int
(** Cell versions currently held (post-GC), as the
    [mrdb_txn_undo_versions] gauge reports them; row-count versions are
    not counted.  It can stay above 0 with no snapshot open, until the
    commits that follow have drained it.  Each commit also sets [mrdb_txn_horizon_lag] (the clock
    minus the oldest begin timestamp still held) and
    [mrdb_txn_oldest_snapshot_seconds].  These gauges are process-wide:
    with several managers in one process, the last one to commit sets
    them. *)
