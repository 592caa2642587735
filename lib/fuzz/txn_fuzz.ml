(* The transaction fuzz axis: interleaved multi-client histories run
   against the MVCC manager and differentially checked against a serial
   oracle under SI-admissible equivalence.

   A case is a single int table, a handful of clients each running a few
   small transactions, and an explicit interleaving schedule (one client id
   per micro-step).  Execution is deterministic — the schedule *is* the
   concurrency — so any failing seed replays exactly.

   The op language is chosen so the serial oracle is exact under snapshot
   isolation with first-committer-wins:

     Get         pure read — checked against the snapshot state
     Add         read-modify-write of ONE cell — its written value depends
                 only on a cell the transaction also writes, which FCW
                 protects, so replaying committed transactions semantically
                 in commit order reproduces the final state exactly (a lost
                 update would show up as a divergence)
     Put         blind write
     Ins         append a row
     Count       visible row count at the snapshot

   Deliberately absent: writes computed from reads of *other* cells.  Those
   are write skew, which SI permits (DESIGN.md §5h) — the oracle would have
   no exact answer, so the generator does not produce them.

   Checks per case:
     1. every Get/Count observed during execution equals the serial
        oracle's state at the transaction's begin timestamp (own writes
        overlaid in program order) — SI reads are consistent snapshots;
     2. the final catalog contents equal the oracle's replay of exactly the
        committed transactions in commit-timestamp order (value-identical
        via Durability.Snapshot.digest);
     3. conflict soundness: a Txn_conflict abort must overlap, on some
        written cell, a transaction that committed after the victim began
        — conflicts are real, never spurious;
     4. commit-timestamp monotonicity across the history. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Schema = Storage.Schema
module Layout = Storage.Layout
module Relation = Storage.Relation
module Rng = Mrdb_util.Rng
module Errors = Mrdb_util.Errors

(* ------------------------------------------------------------------ *)
(* Cases                                                              *)
(* ------------------------------------------------------------------ *)

type op =
  | Get of { tid : int; attr : int }
  | Add of { tid : int; attr : int; delta : int }
  | Put of { tid : int; attr : int; value : int }
  | Ins of int array
  | Count

type prog = { ops : op list; commits : bool (* false = deliberate abort *) }

type case = {
  seed : int;
  cols : int;
  init : int array array; (* initial rows, row-major *)
  clients : prog array array; (* clients.(c) = that client's transactions *)
  schedule : int array; (* client ids; each occurrence = one micro-step *)
}

let table_name = "t"

let pp_op ppf = function
  | Get { tid; attr } -> Format.fprintf ppf "Get(%d,%d)" tid attr
  | Add { tid; attr; delta } -> Format.fprintf ppf "Add(%d,%d,%+d)" tid attr delta
  | Put { tid; attr; value } -> Format.fprintf ppf "Put(%d,%d,%d)" tid attr value
  | Ins _ -> Format.fprintf ppf "Ins"
  | Count -> Format.fprintf ppf "Count"

let pp_case ppf c =
  Format.fprintf ppf "txn case seed %d: %d rows x %d cols, %d client(s)@."
    c.seed (Array.length c.init) c.cols (Array.length c.clients);
  Array.iteri
    (fun ci progs ->
      Format.fprintf ppf "  client %d:@." ci;
      Array.iteri
        (fun ti p ->
          Format.fprintf ppf "    txn %d (%s):" ti
            (if p.commits then "commit" else "abort");
          List.iter (fun o -> Format.fprintf ppf " %a" pp_op o) p.ops;
          Format.fprintf ppf "@.")
        progs)
    c.clients

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let gen_case ?(max_clients = 3) seed =
  let rng = Rng.create (0x7A11 + seed) in
  let rows = Rng.int_in rng 2 10 in
  let cols = Rng.int_in rng 2 4 in
  let init =
    Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.int rng 100))
  in
  let n_clients = Rng.int_in rng 2 (max 2 max_clients) in
  let gen_op () =
    let tid = Rng.int rng rows and attr = Rng.int rng cols in
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> Get { tid; attr }
    | 3 | 4 | 5 -> Add { tid; attr; delta = Rng.int_in rng (-5) 9 }
    | 6 | 7 -> Put { tid; attr; value = Rng.int rng 1000 }
    | 8 -> Ins (Array.init cols (fun _ -> Rng.int rng 100))
    | _ -> Count
  in
  let gen_prog () =
    {
      ops = List.init (Rng.int_in rng 1 5) (fun _ -> gen_op ());
      commits = Rng.bool rng 0.85;
    }
  in
  let clients =
    Array.init n_clients (fun _ ->
        Array.init (Rng.int_in rng 1 4) (fun _ -> gen_prog ()))
  in
  (* Micro-steps per client: each txn costs |ops| + 1 (the commit/abort
     step; BEGIN rides on the first scheduled step).  A fair random
     interleave of exactly that many occurrences per client. *)
  let steps c =
    Array.fold_left (fun a p -> a + List.length p.ops + 1) 0 clients.(c)
  in
  let schedule =
    Array.concat
      (List.init n_clients (fun c -> Array.make (steps c) c))
  in
  Rng.shuffle rng schedule;
  { seed; cols; init; clients; schedule }

(* ------------------------------------------------------------------ *)
(* Execution against the MVCC manager                                 *)
(* ------------------------------------------------------------------ *)

type observation =
  | Saw of { tid : int; attr : int; value : V.t }
  | Counted of int

type wop = WAdd of int * int * int | WPut of int * int * int

type exec = {
  client : int;
  txn_idx : int;
  begin_ts : int;
  obs : observation list; (* program order *)
  wops : wop list; (* Add/Put ops in program order *)
  writes : (int * int) list; (* the cells of [wops] *)
  inserts : int array list; (* program order *)
  outcome : [ `Committed of int | `Conflict of int | `UserAbort ];
      (* Conflict carries the manager clock when the abort happened *)
}

let build_catalog c =
  let cat = Catalog.create () in
  let schema =
    Schema.make table_name
      (List.init c.cols (fun i -> (Printf.sprintf "a%d" i, V.Int)))
  in
  let rel = Catalog.add cat schema (Layout.row schema) in
  Array.iter
    (fun row -> ignore (Relation.append rel (Array.map (fun v -> V.VInt v) row)))
    c.init;
  cat

let m_histories =
  Obs.Metrics.counter "mrdb_txn_fuzz_histories_total"
    ~help:"Interleaved histories executed by the txn fuzz axis"

let m_txn_divergences =
  Obs.Metrics.counter "mrdb_txn_fuzz_divergences_total"
    ~help:"Serial-oracle divergences found by the txn fuzz axis"

let client_latency ci =
  Obs.Metrics.histogram
    (Printf.sprintf "mrdb_fuzz_client_%d_txn_seconds" ci)
    ~help:"Per-client transaction latency inside fuzzed histories"

(* Walk the schedule.  Each client tracks (txn index, remaining ops, the
   open Mvcc.txn, the partial exec log); a schedule entry for a finished
   client is skipped (shuffling guarantees exactly the right number of
   steps, so this only absorbs steps freed by an early conflict abort). *)
let execute mgr c =
  let n = Array.length c.clients in
  let cur_txn = Array.make n None in
  let cur_ops : op list array = Array.make n [] in
  let txn_idx = Array.make n 0 in
  let started = Array.make n 0.0 in
  let log_obs : observation list array = Array.make n [] in
  let execs = ref [] in
  let finish ci outcome =
    let prog = c.clients.(ci).(txn_idx.(ci)) in
    let wops =
      List.filter_map
        (function
          | Add { tid; attr; delta } -> Some (WAdd (tid, attr, delta))
          | Put { tid; attr; value } -> Some (WPut (tid, attr, value))
          | Get _ | Ins _ | Count -> None)
        prog.ops
    in
    let txn = Option.get cur_txn.(ci) in
    Obs.Metrics.observe (client_latency ci)
      (Unix.gettimeofday () -. started.(ci));
    execs :=
      {
        client = ci;
        txn_idx = txn_idx.(ci);
        begin_ts = Txn.Mvcc.begin_ts txn;
        obs = List.rev log_obs.(ci);
        wops;
        writes =
          List.map (function WAdd (t, a, _) | WPut (t, a, _) -> (t, a)) wops;
        inserts =
          List.filter_map (function Ins r -> Some r | _ -> None) prog.ops;
        outcome;
      }
      :: !execs;
    cur_txn.(ci) <- None;
    log_obs.(ci) <- [];
    txn_idx.(ci) <- txn_idx.(ci) + 1
  in
  Array.iter
    (fun ci ->
      if txn_idx.(ci) < Array.length c.clients.(ci) then begin
        (match cur_txn.(ci) with
        | None ->
            cur_txn.(ci) <- Some (Txn.Mvcc.begin_ mgr);
            started.(ci) <- Unix.gettimeofday ();
            cur_ops.(ci) <- c.clients.(ci).(txn_idx.(ci)).ops
        | Some _ -> ());
        let txn = Option.get cur_txn.(ci) in
        match cur_ops.(ci) with
        | op :: rest -> (
            cur_ops.(ci) <- rest;
            match op with
            | Get { tid; attr } ->
                let v = Txn.Mvcc.read txn table_name tid attr in
                log_obs.(ci) <- Saw { tid; attr; value = v } :: log_obs.(ci)
            | Add { tid; attr; delta } ->
                let v = Txn.Mvcc.read txn table_name tid attr in
                Txn.Mvcc.update txn table_name tid attr
                  (V.VInt (V.to_int v + delta))
            | Put { tid; attr; value } ->
                Txn.Mvcc.update txn table_name tid attr (V.VInt value)
            | Ins row ->
                Txn.Mvcc.insert txn table_name
                  (Array.map (fun v -> V.VInt v) row)
            | Count ->
                log_obs.(ci) <-
                  Counted (Txn.Mvcc.visible_rows txn table_name)
                  :: log_obs.(ci))
        | [] -> (
            (* commit/abort micro-step *)
            if c.clients.(ci).(txn_idx.(ci)).commits then
              match Txn.Mvcc.commit txn with
              | ts -> finish ci (`Committed ts)
              | exception Errors.Txn_conflict _ ->
                  finish ci (`Conflict (Txn.Mvcc.clock mgr))
            else begin
              Txn.Mvcc.abort txn;
              finish ci `UserAbort
            end)
      end)
    c.schedule;
  (* A client whose schedule steps were consumed while it still had ops
     (cannot happen with exact step counts, but guard anyway): abort. *)
  Array.iteri
    (fun ci t ->
      match t with Some txn -> (Txn.Mvcc.abort txn; ignore ci) | None -> ())
    cur_txn;
  List.rev !execs

(* ------------------------------------------------------------------ *)
(* The serial oracle                                                  *)
(* ------------------------------------------------------------------ *)

type oracle_state = { cells : int array array; extra : int array list }
(* [cells] covers the initial rows; [extra] the committed inserts in
   commit order (appended rows are never updated by the op language). *)

(* Semantic replay in program order: an Add reads the oracle's current
   cell, which — because the cell is in the write set — FCW guarantees
   matches the snapshot value the live run used (an overlapping committer
   would have aborted this transaction instead).  Earlier writes of the
   same transaction are visible to later Adds, matching the manager's
   read-own-writes. *)
let apply_committed st (e : exec) =
  let cells = Array.map Array.copy st.cells in
  List.iter
    (function
      | WAdd (tid, attr, delta) -> cells.(tid).(attr) <- cells.(tid).(attr) + delta
      | WPut (tid, attr, value) -> cells.(tid).(attr) <- value)
    e.wops;
  { cells; extra = st.extra @ e.inserts }

let state_rows st = Array.length st.cells + List.length st.extra

let state_get st tid attr = st.cells.(tid).(attr)

(* ------------------------------------------------------------------ *)
(* Divergence checks                                                  *)
(* ------------------------------------------------------------------ *)

let check_case c (execs : exec list) mgr =
  let divs = ref [] in
  let add combo statement detail =
    divs := { Driver.combo; statement; detail } :: !divs
  in
  let diverge (e : exec) fmt =
    Format.kasprintf (add (Printf.sprintf "client %d" e.client) e.txn_idx) fmt
  in
  let committed =
    List.filter_map
      (fun e -> match e.outcome with `Committed ts -> Some (ts, e) | _ -> None)
      execs
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* 4: commit timestamps are unique and the clock covers them *)
  let rec mono = function
    | (a, _) :: ((b, (eb : exec)) :: _ as tl) ->
        if b <= a then
          diverge eb "commit ts %d not after predecessor %d" b a;
        mono tl
    | _ -> ()
  in
  mono committed;
  (* oracle timeline: state after each committed ts *)
  let init_state = { cells = Array.map Array.copy c.init; extra = [] } in
  let timeline =
    List.fold_left
      (fun acc (ts, e) ->
        let prev = snd (List.hd acc) in
        (ts, apply_committed prev e) :: acc)
      [ (0, init_state) ]
      committed
  in
  (* state visible at begin timestamp s: newest entry with ts <= s *)
  let state_at s =
    let rec find = function
      | (ts, st) :: tl -> if ts <= s then st else find tl
      | [] -> init_state
    in
    find timeline
  in
  let final_state = snd (List.hd timeline) in
  (* 1: every observation is SI-consistent with the snapshot + own writes *)
  List.iter
    (fun e ->
      let snap = state_at e.begin_ts in
      (* overlay of e's own writes in program order, built incrementally as
         we walk the ops so each Get sees exactly the prior writes *)
      let overlay = Hashtbl.create 8 in
      let own_val tid attr =
        match Hashtbl.find_opt overlay (tid, attr) with
        | Some v -> v
        | None -> state_get snap tid attr
      in
      let obs = ref e.obs in
      List.iter
        (fun op ->
          match op with
          | Get { tid; attr } -> (
              match !obs with
              | Saw { tid = t; attr = a; value } :: tl when t = tid && a = attr ->
                  obs := tl;
                  let expected = V.VInt (own_val tid attr) in
                  if V.compare value expected <> 0 then
                    diverge e
                      "Get(%d,%d) saw %s, snapshot at ts %d says %s" tid attr
                      (V.to_display value) e.begin_ts (V.to_display expected)
              | _ -> diverge e "observation log out of sync")
          | Add { tid; attr; delta } ->
              Hashtbl.replace overlay (tid, attr) (own_val tid attr + delta)
          | Put { tid; attr; value } -> Hashtbl.replace overlay (tid, attr) value
          | Ins _ -> ()
          | Count -> (
              match !obs with
              | Counted n :: tl ->
                  obs := tl;
                  let expected = state_rows snap in
                  if n <> expected then
                    diverge e
                      "Count saw %d rows, snapshot at ts %d has %d" n
                      e.begin_ts expected
              | _ -> diverge e "observation log out of sync"))
        c.clients.(e.client).(e.txn_idx).ops)
    execs;
  (* 3: conflicts are real — some committer in (begin_ts, clock-at-abort]
     wrote one of the victim's cells *)
  List.iter
    (fun e ->
      match e.outcome with
      | `Conflict upto ->
          let overlaps =
            List.exists
              (fun (ts, u) ->
                ts > e.begin_ts && ts <= upto
                && List.exists (fun w -> List.mem w u.writes) e.writes)
              committed
          in
          if not overlaps then
            diverge e
              "spurious conflict: no committer in (%d, %d] overlaps its \
               write set"
              e.begin_ts upto
      | _ -> ())
    execs;
  (* 2: final catalog contents = oracle replay of the committed prefix,
     checked value-identically via the snapshot digest *)
  let oracle_cat = Catalog.create () in
  let schema =
    Schema.make table_name
      (List.init c.cols (fun i -> (Printf.sprintf "a%d" i, V.Int)))
  in
  let rel = Catalog.add oracle_cat schema (Layout.row schema) in
  Array.iter
    (fun row -> ignore (Relation.append rel (Array.map (fun v -> V.VInt v) row)))
    final_state.cells;
  List.iter
    (fun row -> ignore (Relation.append rel (Array.map (fun v -> V.VInt v) row)))
    final_state.extra;
  let live = Durability.Snapshot.digest (Txn.Mvcc.catalog mgr) in
  let oracle = Durability.Snapshot.digest oracle_cat in
  if live <> oracle then
    add "txn" (-1)
      (Printf.sprintf
         "final state differs from serial replay of committed transactions \
          (digest %s vs %s)"
         live oracle);
  List.rev !divs

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let run_case c =
  Obs.Metrics.incr m_histories;
  let cat = build_catalog c in
  let mgr = Txn.Mvcc.create cat in
  let execs = execute mgr c in
  let divs = check_case c execs mgr in
  Obs.Metrics.add m_txn_divergences (List.length divs);
  divs
