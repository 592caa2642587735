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

   The served rounds run the same transfers at 1/2/4/8 clients through
   Txn.Server: each client is a Txn.Client on a domain of its own (one
   client runs on the main domain), connected over a unix socket to the
   accept loop on another domain, and reports the same four figures.
   Unlike the in-process rounds, the server's own per-request work (wire
   decoding and encoding, and the session's OCaml work outside the
   manager mutex) is serialized here too, on the one domain whose threads
   run the sessions.  The clients share the server's process, so every
   minor collection stops their domains as well.

   The wire cell runs the same transfer (begin, two gets, two sets,
   commit) from one Txn.Client over a unix socket against a Txn.Server
   domain, and reports the replies the client waited for per transfer
   (mrdb_client_round_trips_total), committed transfers/sec, and the
   minor words client and server allocate together per committed
   transfer.  The sets are pipelined behind the next call, so a transfer
   costs 4 round trips where a request-reply client pays 6.

   The held-snapshot cell runs 5,000 in-process commits, each overwriting
   one balance of a 20,000-row table round-robin and appending one row,
   once with a snapshot begun before the loop and aborted after it and
   once without.  It reports the minor words each commit allocates, a
   count that repeats exactly in one domain: a commit whose GC work
   followed the versions retained rather than the ones it frees would
   show here as a count growing with the loop.

   The new-order cell runs 2,000 seeded new-orders shaped like perfbench
   oltp's (read and bump a district's next order id and a customer's
   balance, insert the order, then read and write one stock row and
   insert one order line for each of 5-15 lines) from one Txn.Client over
   a unix socket against Txn.Server's accept loop on a domain, on a CH
   catalog at scale 0.1 with the WAL attached in memory.  It reports the
   minor words the server allocates per new-order (every domain's words,
   read after the server domain is joined, less the client domain's
   own), the client's, and the minor collections per 1,000 new-orders.
   The word counts repeat exactly; the collections follow from them and
   the minor heap's size, and each one stops every domain. *)

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

let build_bank ?(rows = accounts) () =
  let cat = Catalog.create () in
  let schema = Schema.make "acct" [ ("id", V.Int); ("bal", V.Int) ] in
  let rel = Catalog.add cat schema (Layout.row schema) in
  for i = 0 to rows - 1 do
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

let latency_histogram name =
  Obs.Metrics.histogram name
    ~help:"Per-transaction latency, begin to successful commit"

(* Client [ci]'s loop: [per_client] committed transfers, each [attempt]
   timed into [hist] from its first try to its commit, a conflict retried
   after the client's own seeded backoff, whose schedule starts afresh
   with each transfer as [Mvcc.run]'s does. *)
let client_loop ~n_clients ~per_client hist ci attempt =
  let rng = Rng.create (0xB41 + (1000 * n_clients) + ci) in
  let backoff = Txn.Backoff.create ~seed:(0xACE + ci) () in
  let st = { commits = 0; conflicts = 0 } in
  while st.commits < per_client do
    let t0 = Unix.gettimeofday () in
    Txn.Backoff.reset backoff;
    let committed = ref false in
    while not !committed do
      match attempt rng with
      | () -> committed := true
      | exception Errors.Txn_conflict _ ->
          st.conflicts <- st.conflicts + 1;
          ignore (Txn.Backoff.sleep backoff)
    done;
    st.commits <- st.commits + 1;
    Obs.Metrics.observe hist (Unix.gettimeofday () -. t0)
  done;
  st

(* Run [client ci] for each of [n] clients, each on a domain of its own
   when there are several.  Returns (wall seconds, commits, conflicts). *)
let on_domains n client =
  let t0 = Unix.gettimeofday () in
  let stats =
    if n = 1 then [| client 0 |]
    else
      Array.map Domain.join
        (Array.init n (fun ci -> Domain.spawn (fun () -> client ci)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  ( wall,
    Array.fold_left (fun a s -> a + s.commits) 0 stats,
    Array.fold_left (fun a s -> a + s.conflicts) 0 stats )

(* Run [n_clients] domains for [per_client] committed transfers each.
   Returns (wall seconds, commits, conflicts, latency histogram). *)
let run_round ~n_clients ~per_client =
  let mgr = Mvcc.create (build_bank ()) in
  let hist =
    latency_histogram
      (Printf.sprintf "mrdb_oltp_latency_%dc_seconds" n_clients)
  in
  let wall, commits, conflicts =
    on_domains n_clients (fun ci ->
        client_loop ~n_clients ~per_client hist ci (fun rng ->
            Mvcc.run ~retries:0 mgr (fun txn -> transfer txn rng)))
  in
  check_conserved mgr;
  (wall, commits, conflicts, hist)

(* Minor words allocated so far by every domain.  Gc.quick_stat counts
   another domain's allocation only up to its last minor collection, so
   one is forced first; a joined domain's allocation is counted whole. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* Serve [cat] from Txn.Server's accept loop on a domain and run [f] on
   [clients] clients connected over a unix socket.  Returns the manager,
   [f]'s result, and the minor words every domain allocated while [f]
   ran, read after the server domain is joined so its allocation is
   counted whole. *)
let served ?(clients = 1) cat ~id f =
  let srv = Txn.Server.create ~max_clients:clients (Mvcc.create cat) in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-%s-%d.sock" id (Unix.getpid ()))
  in
  let listen = Txn.Server.listen_unix sock in
  let server = Domain.spawn (fun () -> Txn.Server.accept_loop srv listen) in
  let cs =
    Array.init clients (fun ci ->
        (* a client id of its own each, so no commit token is shared *)
        let id = if clients = 1 then id else Printf.sprintf "%s-%d" id ci in
        Txn.Client.connect ~id (Txn.Client.Unix_sock sock))
  in
  let words0 = minor_words () in
  let r = f cs in
  Array.iter Txn.Client.close cs;
  Txn.Server.stop srv;
  Txn.Server.poke sock;
  (try Unix.close listen with Unix.Unix_error _ -> ());
  Domain.join server;
  let words = minor_words () -. words0 in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (Txn.Server.mgr srv, r, words)

(* One transfer attempt over the wire: the two sets travel with the
   commit. *)
let wire_transfer c rng =
  let src, dst, amount = draw rng in
  Txn.Client.begin_ c;
  let sb = vint (Txn.Client.get c ~table:"acct" ~tid:src ~attr:1) in
  let db = vint (Txn.Client.get c ~table:"acct" ~tid:dst ~attr:1) in
  Txn.Client.set c ~table:"acct" ~tid:src ~attr:1 (V.VInt (sb - amount));
  Txn.Client.set c ~table:"acct" ~tid:dst ~attr:1 (V.VInt (db + amount));
  ignore (Txn.Client.commit c)

(* [txns] transfers over the wire; returns (round trips per transfer,
   transfers/sec, minor words per transfer). *)
let run_wire ~txns =
  let round_trips = Obs.Metrics.counter "mrdb_client_round_trips_total" in
  let mgr, (rts, wall), words =
    served (build_bank ()) ~id:"bench-wire" (fun cs ->
        let rng = Rng.create 0xB41 in
        let rt0 = Obs.Metrics.counter_value round_trips in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to txns do
          wire_transfer cs.(0) rng
        done;
        ( Obs.Metrics.counter_value round_trips - rt0,
          Unix.gettimeofday () -. t0 ))
  in
  check_conserved mgr;
  ( float_of_int rts /. float_of_int txns,
    float_of_int txns /. wall,
    words /. float_of_int txns )

(* The in-process round's transfers from [n_clients] Txn.Clients, each on
   a domain of its own, against one server.  Returns (wall seconds,
   commits, conflicts, latency histogram). *)
let run_served_round ~n_clients ~per_client =
  let hist =
    latency_histogram
      (Printf.sprintf "mrdb_oltp_served_latency_%dc_seconds" n_clients)
  in
  let mgr, (wall, commits, conflicts), _ =
    served (build_bank ()) ~id:"bench-served" ~clients:n_clients (fun cs ->
        on_domains n_clients (fun ci ->
            client_loop ~n_clients ~per_client hist ci
              (wire_transfer cs.(ci))))
  in
  check_conserved mgr;
  (wall, commits, conflicts, hist)

(* [commits] commits of one overwrite and one append each over a
   [rows]-row table, under a snapshot held across the loop if [held];
   returns minor words per commit. *)
let held_snapshot ~held ~rows ~commits =
  let mgr = Mvcc.create (build_bank ~rows ()) in
  let reader = if held then Some (Mvcc.begin_ mgr) else None in
  let words0 = Gc.minor_words () in
  for i = 0 to commits - 1 do
    let txn = Mvcc.begin_ mgr in
    Mvcc.update txn "acct" (i mod rows) 1 (V.VInt i);
    Mvcc.insert txn "acct" [| V.VInt (rows + i); V.VInt 0 |];
    ignore (Mvcc.commit txn)
  done;
  let words = Gc.minor_words () -. words0 in
  Option.iter Mvcc.abort reader;
  words /. float_of_int commits

(* Column positions in the CH schema. *)
let d_next_o_id = 5
let c_balance = 6
let s_quantity = 2

(* TPC-C's non-uniform random key over [0, n). *)
let nurand rng ~a ~c n = ((Rng.int rng (a + 1) lor Rng.int rng n) + c) mod n

(* [txns] new-orders against a fresh server; returns (server minor words
   per new-order, client minor words per new-order, minor collections per
   1,000 new-orders). *)
let new_order_cell ~txns =
  let cat = (Workloads.Ch.build ~scale:0.1 ()).Workloads.Ch.cat in
  let rows t = Relation.nrows (Catalog.find cat t) in
  let districts = rows "district" and customers = rows "customer" in
  let items = rows "item" and warehouses = rows "warehouse" in
  let orders = rows "orders" in
  let durable =
    Durability.Durable.attach (Durability.Faultio.memory ()) cat
  in
  let gcs () = (Gc.quick_stat ()).Gc.minor_collections in
  let new_orders c =
    let rng = Rng.create 0x0E0 in
    let c_customer = Rng.int rng 1024 and c_item = Rng.int rng 8192 in
    let get table tid attr = vint (Txn.Client.get c ~table ~tid ~attr) in
    let set table tid attr v =
      Txn.Client.set c ~table ~tid ~attr (V.VInt v)
    in
    let gcs0 = gcs () in
    let client0 = Gc.minor_words () in
    for _ = 1 to txns do
      let d = Rng.int rng districts in
      let customer = nurand rng ~a:1023 ~c:c_customer customers in
      let entry = Rng.int rng 3650 in
      let n_lines = Rng.int_in rng 5 15 in
      let w = d mod warehouses in
      Txn.Client.begin_ c;
      let next = get "district" d d_next_o_id in
      set "district" d d_next_o_id (next + 1);
      let o_id = orders + (next * districts) + d in
      let balance = get "customer" customer c_balance in
      set "customer" customer c_balance (balance - Rng.int_in rng 1 10000);
      Txn.Client.insert c ~table:"orders"
        V.[| VInt o_id; VInt d; VInt w; VInt customer; VDate entry; VInt 0;
             VInt n_lines |];
      for number = 0 to n_lines - 1 do
        let item = nurand rng ~a:8191 ~c:c_item items in
        let qty = Rng.int_in rng 1 10 in
        let stock = (w * items) + item in
        let q = get "stock" stock s_quantity in
        set "stock" stock s_quantity
          (if q >= qty + 10 then q - qty else q - qty + 91);
        Txn.Client.insert c ~table:"order_line"
          V.[| VInt o_id; VInt d; VInt w; VInt number; VInt item; VInt w;
               VDate entry; VInt qty; VInt (Rng.int_in rng 1 10000);
               VStr "new-order" |]
      done;
      ignore (Txn.Client.commit c)
    done;
    (Gc.minor_words () -. client0, gcs () - gcs0)
  in
  let _, (client, collections), words =
    served cat ~id:"bench-new-order" (fun cs -> new_orders cs.(0))
  in
  Durability.Durable.detach durable;
  let per x = x /. float_of_int txns in
  ( per (words -. client),
    per client,
    1000. *. float_of_int collections /. float_of_int txns )

let run () =
  Common.header "OLTP: concurrent transfers through the MVCC front door";
  let scale = Common.scale_env "MRDB_BENCH_SCALE" 1.0 in
  let per_client = max 50 (int_of_float (1000. *. scale)) in
  let points = ref [] in
  let round kind ~label ~n (wall, commits, conflicts, hist) =
    let tps = float_of_int commits /. wall in
    let abort_rate =
      float_of_int conflicts /. float_of_int (commits + conflicts)
    in
    let p50 = Obs.Metrics.percentile hist 50. in
    let p99 = Obs.Metrics.percentile hist 99. in
    Common.note
      "%s, %d client(s): %d commits, %d conflicts in %.3fs — %s txn/s, \
       abort rate %.3f, p50 %.0fus, p99 %.0fus"
      label n commits conflicts wall
      (Common.pow10_label tps)
      abort_rate (p50 *. 1e6) (p99 *. 1e6);
    let pt metric ?unit_ v =
      points :=
        Common.pt ~bench:"oltp"
          ~metric:(Printf.sprintf "%s.%d.%s" kind n metric)
          ?unit_ v
        :: !points
    in
    pt "txns_per_sec" ~unit_:"txn/s" tps;
    pt "abort_rate" abort_rate;
    pt "p50_seconds" ~unit_:"s" p50;
    pt "p99_seconds" ~unit_:"s" p99
  in
  List.iter
    (fun n ->
      round "clients" ~label:"in-process" ~n
        (run_round ~n_clients:n ~per_client))
    [ 1; 2; 4 ];
  List.iter
    (fun n ->
      round "served" ~label:"served" ~n
        (run_served_round ~n_clients:n ~per_client))
    [ 1; 2; 4; 8 ];
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
  let held = held_snapshot ~held:true ~rows:20_000 ~commits:5_000 in
  let unheld = held_snapshot ~held:false ~rows:20_000 ~commits:5_000 in
  Common.note
    "held snapshot: %.0f minor words per commit (%.0f with no snapshot held)"
    held unheld;
  let cell metric v =
    points :=
      Common.pt ~bench:"oltp" ~metric:("held_snapshot." ^ metric)
        ~unit_:"words" v
      :: !points
  in
  cell "minor_words_per_commit" held;
  cell "unheld_minor_words_per_commit" unheld;
  let server_words, client_words, gcs = new_order_cell ~txns:2_000 in
  Common.note
    "new-order, 1 client: %.0f server and %.0f client minor words per \
     new-order, %.1f minor collections per 1,000"
    server_words client_words gcs;
  let new_order metric ?unit_ v =
    points :=
      Common.pt ~bench:"oltp" ~metric:("new_order." ^ metric) ?unit_ v
      :: !points
  in
  new_order "server_minor_words_per_txn" ~unit_:"words" server_words;
  new_order "client_minor_words_per_txn" ~unit_:"words" client_words;
  new_order "minor_gcs_per_1k_txn" gcs;
  Common.write_bench "BENCH_oltp.json" (List.rev !points)
