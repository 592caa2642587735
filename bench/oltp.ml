(* OLTP front-door benchmark: concurrent bank transfers through the MVCC
   manager at 1/2/4 client domains.

   Each client runs a fixed number of committed transfer transactions
   (read two balances, write them back shifted) against a shared account
   table, retrying conflicts with its own seeded backoff.  Reported per
   client count:

     committed txns/sec   total committed transfers / wall time
     abort rate           conflicts / (commits + conflicts)
     p50 / p99 latency    per-transaction wall time, first begin to
                          successful commit (retries included), estimated
                          from a pooled latency histogram

   The container may have a single CPU, so no gate assumes multi-client
   scaling — throughput floors and abort-rate ceilings only.

   The wire cell runs the same transfer (begin, two gets, two sets,
   commit) from one Txn.Client over a unix socket against a Txn.Server
   domain, and reports the replies the client waited for per transfer
   (mrdb_client_round_trips_total), committed transfers/sec, and the
   minor words client and server allocate together per committed
   transfer.  The sets are pipelined behind the next call, so a transfer
   costs 4 round trips where a request-reply client pays 6. *)

module V = Storage.Value
module Catalog = Storage.Catalog
module Schema = Storage.Schema
module Layout = Storage.Layout
module Relation = Storage.Relation
module Rng = Mrdb_util.Rng
module Errors = Mrdb_util.Errors
module Mvcc = Txn.Mvcc

let accounts = 64
let init_balance = 100

let build_bank () =
  let cat = Catalog.create () in
  let schema = Schema.make "acct" [ ("id", V.Int); ("bal", V.Int) ] in
  let rel = Catalog.add cat schema (Layout.row schema) in
  for i = 0 to accounts - 1 do
    ignore (Relation.append rel [| V.VInt i; V.VInt init_balance |])
  done;
  cat

let vint = function
  | V.VInt n -> n
  | v -> failwith ("oltp: expected int, got " ^ V.to_display v)

(* A transfer's source, destination and amount. *)
let draw rng =
  let src = Rng.int rng accounts in
  let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
  (src, dst, 1 + Rng.int rng 10)

(* Money is conserved under any interleaving. *)
let check_conserved mgr =
  let total =
    Mvcc.snapshot mgr (fun txn ->
        Array.fold_left
          (fun a v -> a + vint v)
          0 (Mvcc.column txn "acct" 1))
  in
  assert (total = accounts * init_balance)

(* One transfer attempt inside an open transaction. *)
let transfer txn rng =
  let src, dst, amount = draw rng in
  let sb = vint (Mvcc.read txn "acct" src 1) in
  let db = vint (Mvcc.read txn "acct" dst 1) in
  Mvcc.update txn "acct" src 1 (V.VInt (sb - amount));
  Mvcc.update txn "acct" dst 1 (V.VInt (db + amount))

type client_stats = { mutable commits : int; mutable conflicts : int }

(* Run [n_clients] domains for [per_client] committed transfers each.
   Returns (wall seconds, commits, conflicts, latency histogram name). *)
let run_round ~n_clients ~per_client =
  let cat = build_bank () in
  let mgr = Mvcc.create cat in
  let hist_name = Printf.sprintf "mrdb_oltp_latency_%dc_seconds" n_clients in
  let hist =
    Obs.Metrics.histogram hist_name
      ~help:"Per-transaction latency, begin to successful commit"
  in
  let client ci =
    let rng = Rng.create (0xB41 + (1000 * n_clients) + ci) in
    let backoff = Txn.Backoff.create ~seed:(0xACE + ci) () in
    let st = { commits = 0; conflicts = 0 } in
    while st.commits < per_client do
      let t0 = Unix.gettimeofday () in
      let committed = ref false in
      while not !committed do
        match
          Mvcc.run ~retries:0 mgr (fun txn -> transfer txn rng)
        with
        | () -> committed := true
        | exception Errors.Txn_conflict _ ->
            st.conflicts <- st.conflicts + 1;
            ignore (Txn.Backoff.sleep backoff)
      done;
      st.commits <- st.commits + 1;
      Obs.Metrics.observe hist (Unix.gettimeofday () -. t0)
    done;
    st
  in
  let t0 = Unix.gettimeofday () in
  let stats =
    if n_clients = 1 then [| client 0 |]
    else
      Array.map Domain.join
        (Array.init n_clients (fun ci -> Domain.spawn (fun () -> client ci)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let commits = Array.fold_left (fun a s -> a + s.commits) 0 stats in
  let conflicts = Array.fold_left (fun a s -> a + s.conflicts) 0 stats in
  check_conserved mgr;
  (wall, commits, conflicts, hist)

(* Minor words allocated so far by every domain.  Gc.quick_stat counts
   another domain's allocation only up to its last minor collection, so
   one is forced first; a joined domain's allocation is counted whole. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* [txns] transfers over the wire; returns (round trips per transfer,
   transfers/sec, minor words per transfer). *)
let run_wire ~txns =
  let cat = build_bank () in
  let srv = Txn.Server.create (Mvcc.create cat) in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-bench-wire-%d.sock" (Unix.getpid ()))
  in
  let listen = Txn.Server.listen_unix sock in
  let server = Domain.spawn (fun () -> Txn.Server.accept_loop srv listen) in
  let c = Txn.Client.connect ~id:"bench-wire" (Txn.Client.Unix_sock sock) in
  let rng = Rng.create 0xB41 in
  let round_trips = Obs.Metrics.counter "mrdb_client_round_trips_total" in
  let rt0 = Obs.Metrics.counter_value round_trips in
  let words0 = minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to txns do
    let src, dst, amount = draw rng in
    Txn.Client.begin_ c;
    let sb = vint (Txn.Client.get c ~table:"acct" ~tid:src ~attr:1) in
    let db = vint (Txn.Client.get c ~table:"acct" ~tid:dst ~attr:1) in
    Txn.Client.set c ~table:"acct" ~tid:src ~attr:1 (V.VInt (sb - amount));
    Txn.Client.set c ~table:"acct" ~tid:dst ~attr:1 (V.VInt (db + amount));
    ignore (Txn.Client.commit c)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let rts = Obs.Metrics.counter_value round_trips - rt0 in
  Txn.Client.close c;
  Txn.Server.stop srv;
  Txn.Server.poke sock;
  (try Unix.close listen with Unix.Unix_error _ -> ());
  Domain.join server;
  (* after the join, so the server's allocation is counted whole *)
  let words = minor_words () -. words0 in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  check_conserved (Txn.Server.mgr srv);
  ( float_of_int rts /. float_of_int txns,
    float_of_int txns /. wall,
    words /. float_of_int txns )

let run () =
  Common.header "OLTP: concurrent transfers through the MVCC front door";
  let scale = Common.scale_env "MRDB_BENCH_SCALE" 1.0 in
  let per_client = max 50 (int_of_float (1000. *. scale)) in
  let points = ref [] in
  let pt ~n metric ?unit_ v =
    points :=
      Common.pt ~bench:"oltp"
        ~metric:(Printf.sprintf "clients.%d.%s" n metric)
        ?unit_ v
      :: !points
  in
  List.iter
    (fun n ->
      let wall, commits, conflicts, hist =
        run_round ~n_clients:n ~per_client
      in
      let tps = float_of_int commits /. wall in
      let abort_rate =
        float_of_int conflicts /. float_of_int (commits + conflicts)
      in
      let p50 = Obs.Metrics.percentile hist 50. in
      let p99 = Obs.Metrics.percentile hist 99. in
      Common.note
        "%d client(s): %d commits, %d conflicts in %.3fs — %s txn/s, \
         abort rate %.3f, p50 %.0fus, p99 %.0fus"
        n commits conflicts wall
        (Common.pow10_label tps)
        abort_rate (p50 *. 1e6) (p99 *. 1e6);
      pt ~n "txns_per_sec" ~unit_:"txn/s" tps;
      pt ~n "abort_rate" abort_rate;
      pt ~n "p50_seconds" ~unit_:"s" p50;
      pt ~n "p99_seconds" ~unit_:"s" p99)
    [ 1; 2; 4 ];
  let round_trips, tps, words = run_wire ~txns:(2 * per_client) in
  Common.note
    "wire, 1 client: %.2f round trips per transfer, %s txn/s, %.0f minor \
     words per transfer"
    round_trips (Common.pow10_label tps) words;
  let wire metric ?unit_ v =
    points :=
      Common.pt ~bench:"oltp" ~metric:("wire." ^ metric) ?unit_ v :: !points
  in
  wire "round_trips_per_txn" round_trips;
  wire "txns_per_sec" ~unit_:"txn/s" tps;
  wire "minor_words_per_txn" ~unit_:"words" words;
  Common.write_bench "BENCH_oltp.json" (List.rev !points)
