(* Snapshot-isolation MVCC over [Storage.Catalog].

   Design: in-place base + version chains.  The stored relations always
   hold the *latest committed* state; every committed overwrite pushes a
   version "before commit [ts] this cell held [prev]", and every commit
   that appends to a table one "before commit [ts] it had [prev] rows".
   A transaction reads at its begin timestamp [s]: a cell's value (a
   table's row count) at [s] is the [prev] of the oldest version with
   [ts > s], or the base value (the relation's [nrows]) if none.  Inserts
   are append-only, so a snapshot sees a *prefix* of each table's rows.
   Versions are freed in commit order (see [gc]).

   Writes are checked against their attribute ([Storage.Write.check]) when
   they buffer in the transaction (read-your-own-writes served from the
   write set), so a write that could never apply is refused then and not
   at commit.  They apply at commit under first-committer-wins: if any
   written cell's newest version is from a commit after this transaction's
   begin, the commit raises [Errors.Txn_conflict] and nothing is applied.
   Reads are never validated — write skew is permitted, which is exactly
   the snapshot-isolation anomaly boundary (DESIGN.md §5h).

   Commit applies the write set, updates then inserts, through
   [Storage.Write.apply_all] inside [Catalog.in_txn], so with a durability
   manager attached every commit that writes is one transaction-framed,
   flushed WAL unit, and one that writes nothing logs nothing: the WAL
   commit point and the MVCC commit point coincide, and a crash at any
   injected commit-path point recovers to a committed prefix.

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

(* A version chain, newest first: before commit [ts], [key] held
   [prev].  Freeing a version cuts its [older] link, so a chain holds at
   most one freed version, below its oldest live one, which no snapshot
   walks down to. *)
type ('k, 'a) chain =
  | Nil
  | V of { ts : int; prev : 'a; key : 'k; mutable older : ('k, 'a) chain }

(* One table's bookkeeping.  A request finds it by name once; its cells
   then hash by the table's number, not by its name. *)
type table = { name : string; id : int; mutable counts : (table, int) chain }

type cell = { tab : table; tid : int; attr : int }

module Cells = Hashtbl.Make (struct
  type t = cell

  let equal a b = a.tid = b.tid && a.attr = b.attr && a.tab == b.tab

  let hash c =
    let h = (c.tid * 0x9E3779B1) + (c.attr * 0x85EBCA77) + c.tab.id in
    h lxor (h lsr 17)
end)

type version = (cell, Value.t) chain

(* The versions commit [cts] pushed, each the head of its chain then. *)
type pushed = {
  cts : int;
  cells : version list;
  tables : (table, int) chain list;
}

type status = Active | Committed of int | Aborted of string

(* A record of one float is stored flat: a tick then allocates the same
   words whatever the clock reads. *)
type wall = { mutable latest : float }

type t = {
  cat : Catalog.t;
  m : Mutex.t;
  mutable clock : int;  (* last assigned commit timestamp *)
  now : wall;  (* the latest wall-clock reading: never moves back *)
  tables : (string, table) Hashtbl.t;
  undo : version Cells.t;
  commits : pushed Queue.t;  (* oldest first *)
  mutable versions : int;  (* cell versions retained *)
  active : (int, txn) Hashtbl.t;  (* live transactions by [id] *)
  mutable ids : int;
  mutable poisoned : string option;
      (* a commit apply died half-way (simulated crash, I/O error): the
         in-memory state no longer matches storage, every later op refuses *)
}

and txn = {
  mgr : t;
  id : int;
  begin_ts : int;
  writes : Write.op Cells.t;
      (* each written cell's last [Write.Update], as [update] checked it *)
  mutable write_order : cell list;  (* first-write order, reversed *)
  mutable appends : Write.op list;  (* checked [Write.Append]s, reversed *)
  mutable appended : table list;  (* the tables [appends] go to *)
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

let m_lag =
  Obs.Metrics.gauge "mrdb_txn_horizon_lag"
    ~help:"Commit clock minus the GC horizon (post-GC)"

let m_oldest =
  Obs.Metrics.gauge "mrdb_txn_oldest_snapshot_seconds"
    ~help:"Age of the oldest unexpired live transaction (post-GC)"

(* ------------------------------------------------------------------ *)
(* Manager                                                            *)
(* ------------------------------------------------------------------ *)

let create cat =
  {
    cat;
    m = Mutex.create ();
    clock = 0;
    now = { latest = neg_infinity };
    tables = Hashtbl.create 8;
    undo = Cells.create 64;
    commits = Queue.create ();
    versions = 0;
    active = Hashtbl.create 8;
    ids = 0;
    poisoned = None;
  }

let catalog t = t.cat
let clock t = t.clock

(* Run [f] under the manager mutex.  The operations a transaction repeats
   (begin, read, update, insert, commit) lock inline instead, as this
   closure would be allocated at every call. *)
let locked t f =
  Mutex.lock t.m;
  match f () with
  | r ->
      Mutex.unlock t.m;
      r
  | exception e ->
      Mutex.unlock t.m;
      raise e

let check_poisoned t =
  match t.poisoned with
  | Some why -> invalid_arg ("Mvcc: manager poisoned: " ^ why)
  | None -> ()

(* The manager's clock, under the lock: a deadline judged passed stays
   passed even if the wall clock steps back. *)
let tick t =
  t.now.latest <- Float.max t.now.latest (Unix.gettimeofday ());
  t.now.latest

(* The bookkeeping of table [name].
   @raise Errors.Unknown_table for a table the catalog does not have. *)
let table t name =
  match Hashtbl.find t.tables name with
  | tab -> tab
  | exception Not_found ->
      ignore (Catalog.find t.cat name);
      let tab = { name; id = Hashtbl.length t.tables; counts = Nil } in
      Hashtbl.replace t.tables name tab;
      tab

(* The relation [tab] stands for, to read committed values from.  Version
   resolution is bookkeeping, not a modeled data-plane access, so a
   relation with a memory hierarchy attached is read through a copy
   without one; a relation without one (the server's) is read as it is. *)
let base_rel t tab =
  let rel = Catalog.find t.cat tab.name in
  match Relation.hier rel with
  | None -> rel
  | Some _ -> Relation.with_hier rel None

(* The version of [chain] snapshot [s] sees, the oldest one newer than
   [s], or [Nil] if it sees the base.  Versions newer than [s] are a
   prefix of the chain. *)
let rec seen_by s chain =
  match chain with
  | V { older = V o as next; _ } when o.ts > s -> seen_by s next
  | V v when v.ts > s -> chain
  | _ -> Nil

let visible_rows_at tab rel ~ts =
  match seen_by ts tab.counts with V v -> v.prev | Nil -> Relation.nrows rel

(* A read of an attribute the table does not have is the reader's error. *)
let check_attr rel table attr =
  let arity = Storage.Schema.arity (Relation.schema rel) in
  if attr < 0 || attr >= arity then
    raise
      (Errors.Bad_request
         (Printf.sprintf "%s: no attribute %d (%d attributes)" table attr arity))

(* The committed value of [cell] at snapshot [ts]; [rel] is its table's
   [base_rel].  Only the base path can meet an attribute outside the
   table, as no write to one is accepted. *)
let committed_value t rel cell ~ts =
  match Cells.find t.undo cell with
  | chain -> (
      match seen_by ts chain with
      | V v -> v.prev
      | Nil -> Relation.get rel cell.tid cell.attr)
  | exception Not_found ->
      check_attr rel cell.tab.name cell.attr;
      Relation.get rel cell.tid cell.attr

(* The most queued commits one commit frees beyond the one it queued
   itself: the backlog a long-held snapshot leaves drains by this many
   per commit, not all in the commit after the snapshot ends. *)
let backlog_per_commit = 2

(* Free a popped commit's versions, each the oldest of its chain by now:
   cut the link below it and, if it heads its chain, drop the chain. *)
let rec free_cells t = function
  | [] -> ()
  | (V v as ver) :: rest ->
      v.older <- Nil;
      if Cells.find t.undo v.key == ver then Cells.remove t.undo v.key;
      t.versions <- t.versions - 1;
      free_cells t rest
  | Nil :: rest -> free_cells t rest

let rec free_counts = function
  | [] -> ()
  | (V v as ver) :: rest ->
      v.older <- Nil;
      if v.key.counts == ver then v.key.counts <- Nil;
      free_counts rest
  | Nil :: rest -> free_counts rest

(* Free what no live or future snapshot can reach, in commit order.  A
   version of commit [ts] serves only snapshots older than [ts], so the
   commits at or below the horizon can go: the oldest begin timestamp of
   a live transaction, or the clock.  Future transactions begin at [clock]
   or later, and an expired one raises [Txn_timeout] at its next operation
   before any read, so it holds nothing back.  At most [pops] commits are
   popped, oldest first, so the work is a bounded number of commits'
   versions and the live transactions, never the store. *)
let gc t ~now ~pops =
  let horizon = ref t.clock and oldest = ref now in
  Hashtbl.iter
    (fun _ txn ->
      match txn.deadline with
      | Some d when now > d -> ()
      | _ ->
          if txn.begin_ts < !horizon then horizon := txn.begin_ts;
          if txn.started < !oldest then oldest := txn.started)
    t.active;
  let pops = ref pops in
  while
    !pops > 0
    && (not (Queue.is_empty t.commits))
    && (Queue.peek t.commits).cts <= !horizon
  do
    decr pops;
    let c = Queue.pop t.commits in
    free_cells t c.cells;
    free_counts c.tables
  done;
  Obs.Metrics.set m_versions (float_of_int t.versions);
  Obs.Metrics.set m_lag (float_of_int (t.clock - !horizon));
  Obs.Metrics.set m_oldest (now -. !oldest)

let retained_versions t = locked t (fun () -> t.versions)

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let begin_locked t timeout =
  check_poisoned t;
  Obs.Metrics.incr m_begun;
  Obs.Metrics.set m_active (Obs.Metrics.gauge_value m_active +. 1.0);
  let now = tick t in
  let txn =
    {
      mgr = t;
      id = t.ids;
      begin_ts = t.clock;
      writes = Cells.create 8;
      write_order = [];
      appends = [];
      appended = [];
      status = Active;
      deadline = (match timeout with Some d -> Some (now +. d) | None -> None);
      started = now;
    }
  in
  t.ids <- t.ids + 1;
  Hashtbl.replace t.active txn.id txn;
  txn

let begin_ ?timeout t =
  Mutex.lock t.m;
  match begin_locked t timeout with
  | txn ->
      Mutex.unlock t.m;
      txn
  | exception e ->
      Mutex.unlock t.m;
      raise e

let begin_ts txn = txn.begin_ts
let status txn = txn.status

(* Finish (under the lock): drop from the active set exactly once. *)
let finish_locked txn st =
  txn.status <- st;
  Hashtbl.remove txn.mgr.active txn.id;
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
   itself and raises the taxonomy's timeout.  Judged on the manager's
   clock, as [gc] judges it, so a transaction GC has stopped waiting for
   never reads again. *)
let check_deadline_locked txn what =
  match txn.deadline with
  | Some d when tick txn.mgr > d ->
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

let visible_rows txn name =
  locked txn.mgr (fun () ->
      enter txn "visible_rows";
      let tab = table txn.mgr name in
      visible_rows_at tab (Catalog.find txn.mgr.cat name) ~ts:txn.begin_ts)

let check_visible txn tab rel tid what =
  let n = visible_rows_at tab rel ~ts:txn.begin_ts in
  if tid < 0 || tid >= n then
    raise
      (Errors.Bad_request
         (Printf.sprintf
            "Mvcc.%s: row %d of %S not visible at snapshot %d (%d visible)"
            what tid tab.name txn.begin_ts n))

(* A visible cell as [txn] sees it: its own write, else the snapshot's.
   The write set holds only [Update]s. *)
let cell_value txn rel cell =
  match Cells.find txn.writes cell with
  | Write.Update { value; _ } -> value
  | _ | (exception Not_found) ->
      committed_value txn.mgr rel cell ~ts:txn.begin_ts

let read_locked txn name tid attr =
  enter txn "read";
  let tab = table txn.mgr name in
  let rel = base_rel txn.mgr tab in
  check_visible txn tab rel tid "read";
  cell_value txn rel { tab; tid; attr }

let read txn name tid attr =
  Mutex.lock txn.mgr.m;
  match read_locked txn name tid attr with
  | v ->
      Mutex.unlock txn.mgr.m;
      v
  | exception e ->
      Mutex.unlock txn.mgr.m;
      raise e

(* Snapshot-consistent read of one attribute of every visible row — the
   analytics path.  One critical section per column, not per row. *)
let column txn name attr =
  locked txn.mgr (fun () ->
      enter txn "column";
      let tab = table txn.mgr name in
      let rel = base_rel txn.mgr tab in
      let n = visible_rows_at tab rel ~ts:txn.begin_ts in
      check_attr rel name attr;
      Array.init n (fun tid -> cell_value txn rel { tab; tid; attr }))

(* The write set keeps each op as it was checked, and commit applies
   those same ops. *)
let update_locked txn name tid attr value =
  enter txn "update";
  let tab = table txn.mgr name in
  let rel = Catalog.find txn.mgr.cat name in
  check_visible txn tab rel tid "update";
  let op = Write.Update { table = tab.name; tid; attr; value } in
  Write.check_rel rel op;
  let cell = { tab; tid; attr } in
  if not (Cells.mem txn.writes cell) then
    txn.write_order <- cell :: txn.write_order;
  Cells.replace txn.writes cell op

let update txn name tid attr value =
  Mutex.lock txn.mgr.m;
  match update_locked txn name tid attr value with
  | () -> Mutex.unlock txn.mgr.m
  | exception e ->
      Mutex.unlock txn.mgr.m;
      raise e

let insert_locked txn name values =
  enter txn "insert";
  let tab = table txn.mgr name in
  let rel = Catalog.find txn.mgr.cat name in
  let arity = Storage.Schema.arity (Relation.schema rel) in
  if Array.length values <> arity then
    raise
      (Errors.Bad_request
         (Printf.sprintf "Mvcc.insert: %S expects %d values, got %d" name
            arity (Array.length values)));
  let op = Write.Append { table = tab.name; values } in
  Write.check_rel rel op;
  txn.appends <- op :: txn.appends;
  if not (List.memq tab txn.appended) then txn.appended <- tab :: txn.appended

let insert txn name values =
  Mutex.lock txn.mgr.m;
  match insert_locked txn name values with
  | () -> Mutex.unlock txn.mgr.m
  | exception e ->
      Mutex.unlock txn.mgr.m;
      raise e

(* First-committer-wins: a cell we also wrote whose newest version is
   from a commit after our begin means the first committer already won. *)
let rec check_conflicts txn = function
  | [] -> ()
  | cell :: rest -> (
      match Cells.find txn.mgr.undo cell with
      | V v when v.ts > txn.begin_ts ->
          finish_locked txn
            (Aborted
               (Printf.sprintf "write-write conflict on %s[%d].%d"
                  cell.tab.name cell.tid cell.attr));
          Obs.Metrics.incr m_conflicts;
          raise
            (Errors.Txn_conflict
               (Printf.sprintf
                  "%s row %d attr %d was committed at ts %d, after this \
                   transaction's snapshot %d"
                  cell.tab.name cell.tid cell.attr v.ts txn.begin_ts))
      | _ | (exception Not_found) -> check_conflicts txn rest)

(* The write set's ops in apply order, consed onto [acc]: [cells] is the
   first-write order reversed. *)
let rec write_ops writes acc = function
  | [] -> acc
  | cell :: rest -> write_ops writes (Cells.find writes cell :: acc) rest

let commit_locked txn =
  let t = txn.mgr in
  enter txn "commit";
  check_conflicts txn txn.write_order;
  let ts = t.clock + 1 in
  let ops = write_ops txn.writes (List.rev txn.appends) txn.write_order in
  (* The versions this commit pushes, built before the apply: the
     overwritten values and the row counts before this commit.  At
     [clock] no version is newer than the base, so they are read straight
     from the relations, each table's looked up once. *)
  let rels = ref [] in
  let rel_of tab =
    match List.assq tab !rels with
    | rel -> rel
    | exception Not_found ->
        let rel = base_rel t tab in
        rels := (tab, rel) :: !rels;
        rel
  in
  let cells =
    List.rev_map
      (fun cell ->
        let older =
          match Cells.find t.undo cell with c -> c | exception Not_found -> Nil
        in
        V
          {
            ts;
            prev = Relation.get (rel_of cell.tab) cell.tid cell.attr;
            key = cell;
            older;
          })
      txn.write_order
  in
  let tables =
    List.rev_map
      (fun tab ->
        V
          {
            ts;
            prev = Relation.nrows (rel_of tab);
            key = tab;
            older = tab.counts;
          })
      txn.appended
  in
  (* One catalog transaction frame: with durability attached this is
     exactly one Begin..ops..Commit WAL unit, flushed at the end.  A commit
     with no ops opens no frame, so it logs nothing.  The list apply checks
     every op before the first lands, so a refusal (the table's encoding
     changed since the write buffered) applies nothing.  If the apply dies
     half-way (a simulated crash at an injected point), storage and the
     version bookkeeping disagree — poison the manager so every later
     operation refuses instead of serving corrupt snapshots. *)
  (try
     if ops <> [] then
       Catalog.in_txn t.cat (fun () -> Write.apply_all t.cat ops)
   with
  | Errors.Bad_request _ as e ->
      finish_locked txn (Aborted "write refused at commit");
      raise e
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      t.poisoned <-
        Some
          (Printf.sprintf "commit of ts %d died mid-apply (%s)" ts
             (Printexc.to_string e));
      finish_locked txn (Aborted ("apply failed: " ^ Printexc.to_string e));
      Printexc.raise_with_backtrace e bt);
  List.iter
    (function V v as ver -> Cells.replace t.undo v.key ver | Nil -> ())
    cells;
  List.iter (function V v as ver -> v.key.counts <- ver | Nil -> ()) tables;
  let queued = match (cells, tables) with [], [] -> false | _ -> true in
  if queued then begin
    t.versions <- t.versions + List.length cells;
    Queue.push { cts = ts; cells; tables } t.commits
  end;
  t.clock <- ts;
  txn.status <- Committed ts;
  Hashtbl.remove t.active txn.id;
  Obs.Metrics.set m_active (Obs.Metrics.gauge_value m_active -. 1.0);
  Obs.Metrics.incr m_committed;
  let now = tick t in
  Obs.Metrics.observe m_commit_seconds (now -. txn.started);
  gc t ~now ~pops:(backlog_per_commit + if queued then 1 else 0);
  ts

let commit txn =
  Mutex.lock txn.mgr.m;
  match commit_locked txn with
  | ts ->
      Mutex.unlock txn.mgr.m;
      ts
  | exception e ->
      Mutex.unlock txn.mgr.m;
      raise e

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
let run ?(retries = 8) ?timeout t f =
  let backoff = Backoff.create ~seed:1 () in
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
