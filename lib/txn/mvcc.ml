(* Snapshot-isolation MVCC over [Storage.Catalog].

   Design: in-place base + undo chains.  The stored relations always hold
   the *latest committed* state; every committed overwrite pushes an undo
   version "before commit [ts] this cell held [prev]".  A transaction reads
   at its begin timestamp [s]: the value of a cell at [s] is the [prev] of
   the oldest undo version with [ts > s], or the base value if none.
   Inserts are append-only, so a snapshot sees a *prefix* of each table's
   rows; a per-table (commit-ts, nrows) history resolves the visible row
   count.  Undo versions and conflict bookkeeping older than the oldest
   active snapshot are garbage-collected at every commit.

   Writes are checked against their attribute ([Storage.Write.check]) when
   they buffer in the transaction (read-your-own-writes served from the
   write set), so a write that could never apply is refused then and not
   at commit.  They apply at commit under first-committer-wins: if any
   written cell has a committed write with a timestamp after this
   transaction's begin, the commit raises [Errors.Txn_conflict] and nothing
   is applied.  Reads are never validated — write skew is permitted, which
   is exactly the snapshot-isolation anomaly boundary (DESIGN.md §5h).

   Commit applies the write set, updates then inserts, through
   [Storage.Write.apply_all] inside [Catalog.in_txn], so with a durability
   manager attached every commit is one transaction-framed, flushed WAL
   unit: the WAL commit point and the MVCC commit point coincide, and a
   crash at any injected commit-path point recovers to a committed prefix.

   Concurrency: logical MVCC over coarse physical latching.  One manager
   mutex guards every operation's critical section (begin, each read or
   buffered write's visibility check, commit's validate+apply, abort).
   Readers therefore never *block* for the duration of a writer transaction
   — only for single ops — and no locks are held between ops.  The stored
   relations and the shared memory-hierarchy simulator are not thread-safe,
   so all physical access stays inside these sections. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Value = Storage.Value
module Errors = Mrdb_util.Errors
module Write = Storage.Write

type cell = { table : string; tid : int; attr : int }

(* Before commit [ts], the cell held [prev]. *)
type version = { ts : int; prev : Value.t }

type t = {
  cat : Catalog.t;
  m : Mutex.t;
  mutable clock : int;  (* last assigned commit timestamp *)
  undo : (cell, version list) Hashtbl.t;  (* newest-first *)
  last_writer : (cell, int) Hashtbl.t;  (* latest committed write per cell *)
  rows : (string, (int * int) list) Hashtbl.t;
      (* (commit_ts, nrows) newest-first; visible rows at snapshot [s] is
         the [nrows] of the newest entry with [ts <= s] *)
  active : (int, int) Hashtbl.t;  (* begin_ts -> live transactions *)
  mutable poisoned : string option;
      (* a commit apply died half-way (simulated crash, I/O error): the
         in-memory state no longer matches storage, every later op refuses *)
}

type status = Active | Committed of int | Aborted of string

type txn = {
  mgr : t;
  begin_ts : int;
  writes : (cell, Value.t) Hashtbl.t;
  mutable write_order : cell list;  (* first-write order, reversed *)
  mutable inserts : (string * Value.t array) list;  (* reversed *)
  mutable status : status;
  deadline : float option;
  started : float;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let m_begun =
  Obs.Metrics.counter "mrdb_txn_begun_total" ~help:"Transactions begun"

let m_committed =
  Obs.Metrics.counter "mrdb_txn_committed_total" ~help:"Transactions committed"

let m_aborted =
  Obs.Metrics.counter "mrdb_txn_aborted_total"
    ~help:"Transactions aborted (any reason, including conflicts/timeouts)"

let m_conflicts =
  Obs.Metrics.counter "mrdb_txn_conflicts_total"
    ~help:"Commits refused by first-committer-wins write-conflict detection"

let m_timeouts =
  Obs.Metrics.counter "mrdb_txn_timeouts_total"
    ~help:"Transactions aborted by their per-transaction deadline"

let m_active =
  Obs.Metrics.gauge "mrdb_txn_active" ~help:"Live (begun, unfinished) transactions"

let m_commit_seconds =
  Obs.Metrics.histogram "mrdb_txn_commit_seconds"
    ~help:"Begin-to-commit wall latency of committed transactions"

let m_versions =
  Obs.Metrics.gauge "mrdb_txn_undo_versions"
    ~help:"Undo versions currently retained (post-GC)"

(* ------------------------------------------------------------------ *)
(* Manager                                                            *)
(* ------------------------------------------------------------------ *)

let create cat =
  {
    cat;
    m = Mutex.create ();
    clock = 0;
    undo = Hashtbl.create 64;
    last_writer = Hashtbl.create 64;
    rows = Hashtbl.create 8;
    active = Hashtbl.create 8;
    poisoned = None;
  }

let catalog t = t.cat
let clock t = t.clock

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let check_poisoned t =
  match t.poisoned with
  | Some why -> invalid_arg ("Mvcc: manager poisoned: " ^ why)
  | None -> ()

(* Physical reads bypass the (shared, not thread-safe to *race on*, but we
   are under the manager lock) tracer anyway: MVCC version resolution is
   bookkeeping, not a modeled data-plane access pattern. *)
let untraced_rel t table =
  Relation.with_hier (Catalog.find t.cat table) None

let ensure_rows t table =
  if not (Hashtbl.mem t.rows table) then
    Hashtbl.replace t.rows table
      [ (0, Relation.nrows (Catalog.find t.cat table)) ]

let visible_rows_at t table ~ts =
  ensure_rows t table;
  let rec go = function
    | [] -> 0
    | (cts, n) :: rest -> if cts <= ts then n else go rest
  in
  go (Hashtbl.find t.rows table)

(* A read of an attribute the table does not have is the reader's error. *)
let check_attr rel table attr =
  let arity = Storage.Schema.arity (Relation.schema rel) in
  if attr < 0 || attr >= arity then
    raise
      (Errors.Bad_request
         (Printf.sprintf "%s: no attribute %d (%d attributes)" table attr arity))

(* The committed value of [cell] at snapshot [ts].  Only the base path can
   meet an attribute outside the table, as no write to one is accepted. *)
let committed_value t cell ~ts =
  let base () =
    let rel = untraced_rel t cell.table in
    check_attr rel cell.table cell.attr;
    Relation.get rel cell.tid cell.attr
  in
  match Hashtbl.find_opt t.undo cell with
  | None -> base ()
  | Some versions ->
      (* newest-first: versions with [ts' > ts] form a prefix; the oldest
         of those carries the snapshot value *)
      let rec go acc = function
        | v :: rest when v.ts > ts -> go (Some v.prev) rest
        | _ -> acc
      in
      (match go None versions with Some v -> v | None -> base ())

let oldest_active t =
  Hashtbl.fold (fun ts _ acc -> min ts acc) t.active max_int

(* Drop bookkeeping no live or future snapshot can reach: versions (and
   writer stamps) at or below the horizon = min(oldest active begin-ts,
   clock).  Future transactions begin at [clock] or later, so they can
   never need a version whose ts is at or below it either. *)
let gc t =
  let horizon = min (oldest_active t) t.clock in
  let dead_undo = ref [] and live_versions = ref 0 in
  Hashtbl.iter
    (fun cell versions ->
      let keep = List.filter (fun v -> v.ts > horizon) versions in
      live_versions := !live_versions + List.length keep;
      if keep == versions then ()
      else if keep = [] then dead_undo := cell :: !dead_undo
      else Hashtbl.replace t.undo cell keep)
    t.undo;
  List.iter (Hashtbl.remove t.undo) !dead_undo;
  let dead_writers = ref [] in
  Hashtbl.iter
    (fun cell ts -> if ts <= horizon then dead_writers := cell :: !dead_writers)
    t.last_writer;
  List.iter (Hashtbl.remove t.last_writer) !dead_writers;
  Hashtbl.iter
    (fun table history ->
      (* keep everything above the horizon plus the newest entry at or
         below it (the horizon snapshot's row count) *)
      let rec prune = function
        | (ts, n) :: rest when ts > horizon -> (ts, n) :: prune rest
        | (ts, n) :: _ -> [ (ts, n) ]
        | [] -> []
      in
      Hashtbl.replace t.rows table (prune history))
    t.rows;
  Obs.Metrics.set m_versions (float_of_int !live_versions)

let retained_versions t =
  locked t (fun () ->
      Hashtbl.fold (fun _ vs acc -> acc + List.length vs) t.undo 0)

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let register_active t ts =
  Hashtbl.replace t.active ts
    (1 + match Hashtbl.find_opt t.active ts with Some n -> n | None -> 0)

let unregister_active t ts =
  match Hashtbl.find_opt t.active ts with
  | Some n when n > 1 -> Hashtbl.replace t.active ts (n - 1)
  | Some _ -> Hashtbl.remove t.active ts
  | None -> ()

let begin_ ?timeout t =
  locked t (fun () ->
      check_poisoned t;
      Obs.Metrics.incr m_begun;
      Obs.Metrics.set m_active
        (Obs.Metrics.gauge_value m_active +. 1.0);
      let begin_ts = t.clock in
      register_active t begin_ts;
      let now = Unix.gettimeofday () in
      {
        mgr = t;
        begin_ts;
        writes = Hashtbl.create 8;
        write_order = [];
        inserts = [];
        status = Active;
        deadline = Option.map (fun d -> now +. d) timeout;
        started = now;
      })

let begin_ts txn = txn.begin_ts
let status txn = txn.status

(* Finish (under the lock): drop from the active set exactly once. *)
let finish_locked txn st =
  txn.status <- st;
  unregister_active txn.mgr txn.begin_ts;
  Obs.Metrics.set m_active (Obs.Metrics.gauge_value m_active -. 1.0);
  Obs.Metrics.incr m_aborted

let abort txn =
  locked txn.mgr (fun () ->
      match txn.status with
      | Active -> finish_locked txn (Aborted "explicit abort")
      | Aborted _ -> ()
      | Committed _ -> invalid_arg "Mvcc.abort: transaction already committed")

let ensure_active txn what =
  match txn.status with
  | Active -> ()
  | Committed _ ->
      invalid_arg (Printf.sprintf "Mvcc.%s: transaction already committed" what)
  | Aborted why ->
      invalid_arg (Printf.sprintf "Mvcc.%s: transaction aborted (%s)" what why)

(* Deadline check, assumed under the lock: an expired transaction aborts
   itself and raises the taxonomy's timeout. *)
let check_deadline_locked txn what =
  match txn.deadline with
  | Some d when Unix.gettimeofday () > d ->
      finish_locked txn (Aborted "deadline exceeded");
      Obs.Metrics.incr m_timeouts;
      raise
        (Errors.Txn_timeout
           (Printf.sprintf "deadline exceeded before %s (begin ts %d)" what
              txn.begin_ts))
  | _ -> ()

let enter txn what =
  check_poisoned txn.mgr;
  ensure_active txn what;
  check_deadline_locked txn what

let visible_rows txn table =
  locked txn.mgr (fun () ->
      enter txn "visible_rows";
      visible_rows_at txn.mgr table ~ts:txn.begin_ts)

let check_visible txn table tid what =
  let n = visible_rows_at txn.mgr table ~ts:txn.begin_ts in
  if tid < 0 || tid >= n then
    raise
      (Errors.Bad_request
         (Printf.sprintf
            "Mvcc.%s: row %d of %S not visible at snapshot %d (%d visible)"
            what tid table txn.begin_ts n))

(* A visible cell as [txn] sees it: its own write, else the snapshot's. *)
let cell_value txn cell =
  match Hashtbl.find_opt txn.writes cell with
  | Some v -> v
  | None -> committed_value txn.mgr cell ~ts:txn.begin_ts

let read txn table tid attr =
  locked txn.mgr (fun () ->
      enter txn "read";
      check_visible txn table tid "read";
      cell_value txn { table; tid; attr })

let read_row txn table tid =
  locked txn.mgr (fun () ->
      enter txn "read_row";
      check_visible txn table tid "read_row";
      let rel = untraced_rel txn.mgr table in
      let arity = Storage.Schema.arity (Relation.schema rel) in
      Array.init arity (fun attr -> cell_value txn { table; tid; attr }))

(* Snapshot-consistent read of one attribute of every visible row — the
   analytics path.  One critical section per column, not per row. *)
let column txn table attr =
  locked txn.mgr (fun () ->
      enter txn "column";
      let n = visible_rows_at txn.mgr table ~ts:txn.begin_ts in
      check_attr (untraced_rel txn.mgr table) table attr;
      Array.init n (fun tid -> cell_value txn { table; tid; attr }))

let update txn table tid attr value =
  locked txn.mgr (fun () ->
      enter txn "update";
      check_visible txn table tid "update";
      Write.check txn.mgr.cat (Write.Update { table; tid; attr; value });
      let cell = { table; tid; attr } in
      if not (Hashtbl.mem txn.writes cell) then
        txn.write_order <- cell :: txn.write_order;
      Hashtbl.replace txn.writes cell value)

let insert txn table values =
  locked txn.mgr (fun () ->
      enter txn "insert";
      ensure_rows txn.mgr table;
      let rel = Catalog.find txn.mgr.cat table in
      let arity = Storage.Schema.arity (Relation.schema rel) in
      if Array.length values <> arity then
        raise
          (Errors.Bad_request
             (Printf.sprintf "Mvcc.insert: %S expects %d values, got %d" table
                arity (Array.length values)));
      Write.check txn.mgr.cat (Write.Append { table; values });
      txn.inserts <- (table, values) :: txn.inserts)

exception Poison of exn * Printexc.raw_backtrace

let commit txn =
  locked txn.mgr @@ fun () ->
  let t = txn.mgr in
  enter txn "commit";
  (* first-committer-wins: any committed write after our begin to a cell we
     also wrote means the first committer already won *)
  Hashtbl.iter
    (fun cell _ ->
      match Hashtbl.find_opt t.last_writer cell with
      | Some ts when ts > txn.begin_ts ->
          finish_locked txn
            (Aborted
               (Printf.sprintf "write-write conflict on %s[%d].%d" cell.table
                  cell.tid cell.attr));
          Obs.Metrics.incr m_conflicts;
          raise
            (Errors.Txn_conflict
               (Printf.sprintf
                  "%s row %d attr %d was committed at ts %d, after this \
                   transaction's snapshot %d"
                  cell.table cell.tid cell.attr ts txn.begin_ts))
      | _ -> ())
    txn.writes;
  let ts = t.clock + 1 in
  let updates = List.rev txn.write_order in
  let inserts = List.rev txn.inserts in
  let ops =
    List.map
      (fun ({ table; tid; attr } as cell) ->
        Write.Update { table; tid; attr; value = Hashtbl.find txn.writes cell })
      updates
    @ List.map (fun (table, values) -> Write.Append { table; values }) inserts
  in
  let prevs =
    List.map (fun cell -> committed_value t cell ~ts:t.clock) updates
  in
  List.iter (fun (table, _) -> ensure_rows t table) inserts;
  (* One catalog transaction frame: with durability attached this is
     exactly one Begin..ops..Commit WAL unit, flushed at the end.  The list
     apply checks every op before the first lands, so a refusal (the
     table's encoding changed since the write buffered) applies nothing.
     If the apply dies half-way (a simulated crash at an injected point),
     storage and the version bookkeeping disagree — poison the manager so
     every later operation refuses instead of serving corrupt snapshots. *)
  (try Catalog.in_txn t.cat (fun () -> Write.apply_all t.cat ops) with
  | Errors.Bad_request _ as e ->
      finish_locked txn (Aborted "write refused at commit");
      raise e
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      if ops <> [] then
        t.poisoned <-
          Some
            (Printf.sprintf "commit of ts %d died mid-apply (%s)" ts
               (Printexc.to_string e));
      finish_locked txn (Aborted ("apply failed: " ^ Printexc.to_string e));
      Printexc.raise_with_backtrace (Poison (e, bt)) bt);
  List.iter2
    (fun cell prev ->
      let versions =
        match Hashtbl.find_opt t.undo cell with Some vs -> vs | None -> []
      in
      Hashtbl.replace t.undo cell ({ ts; prev } :: versions);
      Hashtbl.replace t.last_writer cell ts)
    updates prevs;
  List.iter
    (fun (table, _) ->
      let nrows = Relation.nrows (Catalog.find t.cat table) in
      match Hashtbl.find t.rows table with
      | (hts, _) :: rest when hts = ts ->
          Hashtbl.replace t.rows table ((ts, nrows) :: rest)
      | history -> Hashtbl.replace t.rows table ((ts, nrows) :: history))
    inserts;
  t.clock <- ts;
  txn.status <- Committed ts;
  unregister_active t txn.begin_ts;
  Obs.Metrics.set m_active (Obs.Metrics.gauge_value m_active -. 1.0);
  Obs.Metrics.incr m_committed;
  Obs.Metrics.observe m_commit_seconds (Unix.gettimeofday () -. txn.started);
  gc t;
  ts

(* Unwrap the internal poison marker so callers see the original exception
   (Faultio.Crash for the chaos tests, the raw error otherwise). *)
let commit txn =
  try commit txn
  with Poison (e, bt) -> Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Client-layer helpers: retry loop and read-only snapshots           *)
(* ------------------------------------------------------------------ *)

let m_retries =
  Obs.Metrics.counter "mrdb_txn_retries_total"
    ~help:"Conflict-triggered retries by the client retry loop"

(* Run [f] in a transaction and commit; on Txn_conflict, retry with seeded
   exponential backoff, up to [retries] retries.  [f] may abort its
   transaction to bail out (the result is still returned, nothing commits).
   Timeouts are not retried: the deadline is a promise to the caller. *)
let run ?(retries = 8) ?timeout ?backoff t f =
  let backoff =
    match backoff with Some b -> b | None -> Backoff.create ~seed:1 ()
  in
  let rec attempt n =
    let txn = begin_ ?timeout t in
    match
      let x = f txn in
      (match txn.status with Active -> ignore (commit txn) | _ -> ());
      x
    with
    | x -> x
    | exception (Errors.Txn_conflict _ as e) ->
        (match txn.status with Active -> abort txn | _ -> ());
        if n >= retries then raise e
        else begin
          Obs.Metrics.incr m_retries;
          ignore (Backoff.sleep backoff);
          attempt (n + 1)
        end
    | exception e ->
        (match txn.status with Active -> abort txn | _ -> ());
        raise e
  in
  attempt 0

(* Read-only snapshot: begin, read, abort — never conflicts, writes
   nothing to the WAL. *)
let snapshot t f =
  let txn = begin_ t in
  Fun.protect
    ~finally:(fun () -> match txn.status with Active -> abort txn | _ -> ())
    (fun () -> f txn)
