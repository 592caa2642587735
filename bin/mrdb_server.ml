(* mrdb_server — the concurrent OLTP front door.

   A thin CLI over Txn.Server: one listening socket (unix-domain by
   default, TCP with --port), an accept loop that serves each client on a
   thread of the loop's domain (so --max-clients is not bounded by the
   runtime's 128 domains, though the clients' requests then take turns on
   one domain: see Txn.Server), and the line protocol of Txn.Wire.  Commit
   points are durable when --wal is
   given: each MVCC commit is one transaction-framed, flushed WAL unit, and
   a server started on an existing log recovers it and serves the
   recovered catalog, so every acknowledged commit survives a crash.

   --smoke runs the whole stack in-process: N update clients (bank
   transfers with bounded retry + seeded exponential backoff) and M
   analytics clients (snapshot SUM/ROWS reads) hammer the server over real
   sockets; the invariants — conserved balance total on *every* snapshot
   read, transfer log length equal to committed transfers — are the
   divergence check CI asserts. *)

open Cmdliner
module Value = Storage.Value
module Server = Txn.Server

(* ------------------------------------------------------------------ *)
(* Database setup                                                     *)
(* ------------------------------------------------------------------ *)

(* The bank schema of the smoke workload: conserved total balance is the
   cross-client invariant every analytics snapshot asserts. *)
let bank_schema =
  Storage.Schema.make "acct" [ ("id", Value.Int); ("bal", Value.Int) ]

let xfer_schema =
  Storage.Schema.make "xfer"
    [ ("src", Value.Int); ("dst", Value.Int); ("amount", Value.Int) ]

let initial_balance = 100

let build_bank ~accounts () =
  let cat = Storage.Catalog.create () in
  let acct =
    Storage.Catalog.add cat bank_schema (Storage.Layout.row bank_schema)
  in
  for i = 0 to accounts - 1 do
    ignore
      (Storage.Relation.append acct [| Value.VInt i; Value.VInt initial_balance |])
  done;
  ignore (Storage.Catalog.add cat xfer_schema (Storage.Layout.row xfer_schema));
  cat

(* The demo databases are served without a simulated memory hierarchy. *)
let load_db name scale ~accounts =
  if name = "bank" then build_bank ~accounts ()
  else fst (Workloads.build name ~scale)

(* A fresh log for [cat]: snapshot it and truncate the log. *)
let attach_wal cat =
  Option.map (fun wal ->
      Durability.Durable.attach (Durability.Durable.files wal) cat)

(* Serve mode's catalog: the one recovered from the log when the log or its
   snapshot exists, else the demo database with a fresh log. *)
let open_catalog ~db ~scale ~accounts = function
  | Some wal
    when List.exists
           (fun store ->
             Sys.file_exists (Durability.Durable.store_path wal store))
           [ Durability.Wal.store_name; Durability.Snapshot.store_name ] ->
      let r, d = Durability.Durable.recover (Durability.Durable.files wal) in
      List.iter
        (Printf.eprintf "mrdb_server: warning: %s\n%!")
        r.Durability.Recover.warnings;
      Printf.printf
        "mrdb_server: recovered %d table(s), replayed %d transaction(s) from \
         %s\n%!"
        (List.length (Storage.Catalog.names r.Durability.Recover.cat))
        r.Durability.Recover.replayed wal;
      (Durability.Durable.catalog d, Some d)
  | wal ->
      let cat = load_db db scale ~accounts in
      (cat, attach_wal cat wal)

let export_metrics = Option.iter Obs.Metrics.export

(* ------------------------------------------------------------------ *)
(* Smoke mode: concurrent clients over real sockets, checked invariants *)
(* ------------------------------------------------------------------ *)

type client_stats = { client : int; committed : int; conflicts : int;
                      divergences : int }

let smoke_update_client ~addr ~transfers ~accounts ~seed i =
  let rng = Mrdb_util.Rng.create (seed + (1000 * i)) in
  let backoff = Txn.Backoff.create ~seed:(seed + i) () in
  let c = Txn.Client.connect ~id:(Printf.sprintf "upd%d" i) addr in
  let committed = ref 0 and conflicts = ref 0 in
  for _ = 1 to transfers do
    let src = Mrdb_util.Rng.int rng accounts in
    let dst = (src + 1 + Mrdb_util.Rng.int rng (accounts - 1)) mod accounts in
    let amount = 1 + Mrdb_util.Rng.int rng 5 in
    (* bounded retry with seeded exponential backoff at the client layer *)
    let rec attempt n =
      Txn.Client.begin_ c;
      match
        let bs = Value.to_int (Txn.Client.get c ~table:"acct" ~tid:src ~attr:1) in
        let bd = Value.to_int (Txn.Client.get c ~table:"acct" ~tid:dst ~attr:1) in
        Txn.Client.set c ~table:"acct" ~tid:src ~attr:1 (Value.VInt (bs - amount));
        Txn.Client.set c ~table:"acct" ~tid:dst ~attr:1 (Value.VInt (bd + amount));
        Txn.Client.insert c ~table:"xfer"
          [| Value.VInt src; Value.VInt dst; Value.VInt amount |];
        Txn.Client.commit c
      with
      | _ts -> incr committed
      | exception Mrdb_util.Errors.Txn_conflict _ ->
          incr conflicts;
          if n < 25 then begin
            ignore (Txn.Backoff.sleep backoff);
            attempt (n + 1)
          end
    in
    attempt 0
  done;
  Txn.Client.close c;
  { client = i; committed = !committed; conflicts = !conflicts; divergences = 0 }

let smoke_analytics_client ~addr ~reads ~accounts i =
  let c = Txn.Client.connect ~id:(Printf.sprintf "ana%d" i) addr in
  let divergences = ref 0 in
  let expected_total = accounts * initial_balance in
  for _ = 1 to reads do
    Txn.Client.begin_ c;
    (* one snapshot: the balance total must be conserved on every read,
       no matter how many transfers are in flight *)
    let total = Value.to_int (Txn.Client.sum c ~table:"acct" ~attr:1) in
    let rows = Txn.Client.rows c "acct" in
    if total <> expected_total then incr divergences;
    if rows <> accounts then incr divergences;
    Txn.Client.abort c
  done;
  Txn.Client.close c;
  { client = i; committed = 0; conflicts = 0; divergences = !divergences }

let run_smoke ~clients ~transfers ~accounts ~seed ~max_clients ~txn_timeout
    ~wal ~metrics =
  let cat = build_bank ~accounts () in
  let durable = attach_wal cat wal in
  let srv = Server.create ~max_clients ?txn_timeout (Txn.Mvcc.create cat) in
  let analytics = max 1 (clients / 2) in
  let updaters = max 1 (clients - analytics) in
  Printf.printf
    "smoke: %d updater(s) x %d transfers, %d analytics reader(s), %d \
     accounts, seed %d\n%!"
    updaters transfers analytics accounts seed;
  let upd, ana =
    Server.in_process srv (fun sock ->
        let addr = Txn.Client.Unix_sock sock in
        let upd_domains =
          List.init updaters (fun i ->
              Domain.spawn (fun () ->
                  smoke_update_client ~addr ~transfers ~accounts ~seed i))
        in
        let ana_domains =
          List.init analytics (fun i ->
              Domain.spawn (fun () ->
                  smoke_analytics_client ~addr ~reads:((transfers / 2) + 5)
                    ~accounts i))
        in
        let upd = List.map Domain.join upd_domains in
        (upd, List.map Domain.join ana_domains))
  in
  (* final divergence audit on the quiesced state *)
  let mgr = Server.mgr srv in
  let final_total =
    Txn.Mvcc.snapshot mgr (fun txn ->
        Array.fold_left
          (fun acc v -> acc + Value.to_int v)
          0
          (Txn.Mvcc.column txn "acct" 1))
  in
  let xfer_rows =
    Txn.Mvcc.snapshot mgr (fun txn -> Txn.Mvcc.visible_rows txn "xfer")
  in
  let committed_total = List.fold_left (fun a s -> a + s.committed) 0 upd in
  let conflict_total = List.fold_left (fun a s -> a + s.conflicts) 0 upd in
  let snapshot_divergences =
    List.fold_left (fun a s -> a + s.divergences) 0 ana
  in
  let audit_divergences =
    (if final_total <> accounts * initial_balance then 1 else 0)
    + if xfer_rows <> committed_total then 1 else 0
  in
  let divergences = snapshot_divergences + audit_divergences in
  List.iter
    (fun s ->
      Printf.printf "  upd%d: %d committed, %d conflict(s)\n" s.client
        s.committed s.conflicts)
    upd;
  List.iter
    (fun s ->
      Printf.printf "  ana%d: %d divergence(s)\n" s.client s.divergences)
    ana;
  Printf.printf
    "smoke: %d committed, %d conflicts, balance total %d (expected %d), \
     %d transfer rows, %d divergence(s)\n"
    committed_total conflict_total final_total
    (accounts * initial_balance)
    xfer_rows divergences;
  (match durable with Some d -> Durability.Durable.detach d | None -> ());
  export_metrics metrics;
  if divergences > 0 then begin
    Printf.eprintf "mrdb_server: smoke FAILED with %d divergence(s)\n"
      divergences;
    exit 1
  end;
  Printf.printf "smoke: clean shutdown, zero divergences\n"

(* ------------------------------------------------------------------ *)
(* Serve mode                                                         *)
(* ------------------------------------------------------------------ *)

let run_serve ~db ~scale ~accounts ~socket ~port ~max_clients ~txn_timeout
    ~wal ~metrics =
  let cat, durable = open_catalog ~db ~scale ~accounts wal in
  let srv = Server.create ~max_clients ?txn_timeout (Txn.Mvcc.create cat) in
  let listen_fd, where =
    match port with
    | Some p -> (Server.listen_tcp p, Printf.sprintf "127.0.0.1:%d" p)
    | None -> (Server.listen_unix socket, socket)
  in
  (* Shutting the listening socket down wakes accept(2) on whichever
     thread the signal lands; the accept loop then stops the server,
     which ends the live sessions.  Server.stop itself takes a lock a
     handler must not wait for. *)
  let shutdown _ =
    try Unix.shutdown listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
  Printf.printf "mrdb_server: serving %s on %s (max %d clients%s%s)\n%!" db
    where max_clients
    (match txn_timeout with
    | Some t -> Printf.sprintf ", txn timeout %gs" t
    | None -> "")
    (match wal with Some w -> ", wal " ^ w | None -> "");
  Server.accept_loop srv listen_fd;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  if port = None then (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (match durable with Some d -> Durability.Durable.detach d | None -> ());
  export_metrics metrics;
  Printf.printf "mrdb_server: clean shutdown\n"

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)
(* ------------------------------------------------------------------ *)

let main db scale accounts socket port max_clients txn_timeout wal metrics
    smoke clients transfers seed =
  if smoke then
    run_smoke ~clients ~transfers ~accounts ~seed ~max_clients ~txn_timeout
      ~wal ~metrics
  else
    run_serve ~db ~scale ~accounts ~socket ~port ~max_clients ~txn_timeout
      ~wal ~metrics

let cmd =
  let db =
    let dbs = "bank" :: Workloads.names in
    Arg.(value & opt (enum (List.map (fun d -> (d, d)) dbs)) "bank"
         & info [ "d"; "db" ] ~docv:"DB"
             ~doc:
               (Printf.sprintf
                  "Database to serve: bank (synthetic accounts) or a demo \
                   database (%s)."
                  (String.concat ", " Workloads.names)))
  in
  let scale =
    Arg.(value & opt float 0.2
         & info [ "s"; "scale" ] ~docv:"SCALE"
             ~doc:"Demo-database scale factor.")
  in
  let accounts =
    Arg.(value & opt int 32
         & info [ "accounts" ] ~docv:"N" ~doc:"Rows in the bank table.")
  in
  let socket =
    Arg.(value & opt string "/tmp/mrdb.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on.")
  in
  let port =
    Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Listen on 127.0.0.1:$(docv) instead of the unix socket.")
  in
  let max_clients =
    Arg.(value & opt int 8
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Admission gate: connections past $(docv) concurrent \
                   clients are shed with ERR BUSY.")
  in
  let txn_timeout =
    Arg.(value & opt (some float) (Some 5.0)
         & info [ "txn-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-transaction deadline; an expired transaction aborts \
                   with ERR TIMEOUT at its next operation.")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"FILE"
             ~doc:"Write-ahead-log commits to $(docv); every MVCC commit is \
                   one flushed WAL transaction.  When $(docv) or its \
                   snapshot exists, serve the catalog recovered from them \
                   instead of a fresh database (--smoke always starts \
                   fresh).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Export the metrics registry on shutdown, per-client \
                   latency histograms included: the first 64 distinct \
                   client ids (named from at most 64 bytes of the id) get \
                   one each, later clients share \
                   mrdb_client_other_txn_seconds.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Self-test: run the server in-process and hammer it with \
                   concurrent update + analytics clients over real sockets; \
                   exit nonzero on any divergence.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N"
             ~doc:"Smoke mode: total concurrent clients (half analytics).")
  in
  let transfers =
    Arg.(value & opt int 50
         & info [ "transfers" ] ~docv:"N"
             ~doc:"Smoke mode: committed transfers per update client.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Smoke mode: workload and backoff seed.")
  in
  Cmd.v
    (Cmd.info "mrdb_server" ~version:Core.version
       ~doc:"Concurrent MVCC transaction server for mrdb")
    Term.(
      const main $ db $ scale $ accounts $ socket $ port $ max_clients
      $ txn_timeout $ wal $ metrics $ smoke $ clients $ transfers $ seed)

let () =
  try exit (Cmd.eval ~catch:false cmd) with
  | e -> (
      match Mrdb_util.Errors.exit_code_of e with
      | Some code ->
          Printf.eprintf "mrdb_server: %s\n"
            (match Mrdb_util.Errors.to_diagnostic e with
            | Some m -> m
            | None -> Printexc.to_string e);
          exit code
      | None -> raise e)
