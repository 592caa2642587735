(* oltp: the OLTP front door as one client sees it.

   The CH scale-1.0 catalog is served by Txn.Server's accept loop on a
   domain of this process, with Durability.Durable attached to a fresh
   in-memory Faultio env: each commit is one WAL unit, encoded, checksummed
   and flushed to the env, with no checkpoint.  The WAL stays off the disk,
   whose write-back stalls made commit times wander between runs; the
   file backend would add one open/append/close per commit.  One Txn.Client
   drives it over a unix socket in a closed loop; each op is a ping and
   one new-order-shaped transaction.  None of SQL, the compiler or the
   memory simulator is on this path. *)

open Common
module Ch = Workloads.Ch
module Client = Txn.Client
module Mvcc = Txn.Mvcc
module Server = Txn.Server
module Durable = Durability.Durable

let scale = 1.0

(* Column positions in the CH schema. *)
let d_next_o_id = 5
let c_balance = 6
let s_quantity = 2

type line = { item : int; qty : int; amount : int }
type txn = { district : int; customer : int; entry : int; lines : line array }

(* TPC-C's non-uniform random key over [0, n). *)
let nurand rng ~a ~c n = ((Rng.int rng (a + 1) lor Rng.int rng n) + c) mod n

let make_txns rng ~n ~districts ~customers ~items =
  let c_customer = Rng.int rng 1024 and c_item = Rng.int rng 8192 in
  Array.init n (fun _ ->
      let district = Rng.int rng districts in
      let customer = nurand rng ~a:1023 ~c:c_customer customers in
      let entry = Rng.int rng 3650 in
      let lines =
        Array.init (Rng.int_in rng 5 15) (fun _ ->
            {
              item = nurand rng ~a:8191 ~c:c_item items;
              qty = Rng.int_in rng 1 10;
              amount = Rng.int_in rng 1 10000;
            })
      in
      { district; customer; entry; lines })

type sizes = {
  warehouses : int;
  districts : int;
  customers : int;
  orders : int;
  order_lines : int;
  items : int;
}

let sizes cat =
  let rows t = Storage.Relation.nrows (Storage.Catalog.find cat t) in
  {
    warehouses = rows "warehouse";
    districts = rows "district";
    customers = rows "customer";
    orders = rows "orders";
    order_lines = rows "order_line";
    items = rows "item";
  }

(* One new-order transaction.  Order ids stay globally unique: district
   [d]'s k-th order gets id [orders + k * districts + d]. *)
let new_order c (s : sizes) ~first_o_id (t : txn) =
  let get table tid attr =
    V.to_int (Trace.span Trace.k_get (fun () -> Client.get c ~table ~tid ~attr))
  in
  let set table tid attr v =
    Trace.span Trace.k_set (fun () ->
        Client.set c ~table ~tid ~attr (V.VInt v))
  in
  let insert table row =
    Trace.span Trace.k_insert (fun () -> Client.insert c ~table row)
  in
  Trace.span Trace.k_begin (fun () -> Client.begin_ c);
  let d = t.district in
  let w = d mod s.warehouses in
  let next = get "district" d d_next_o_id in
  set "district" d d_next_o_id (next + 1);
  let o_id = s.orders + ((next - first_o_id) * s.districts) + d in
  let balance = get "customer" t.customer c_balance in
  set "customer" t.customer c_balance (balance - t.lines.(0).amount);
  insert "orders"
    V.
      [|
        VInt o_id;
        VInt d;
        VInt w;
        VInt t.customer;
        VDate t.entry;
        VInt 0;
        VInt (Array.length t.lines);
      |];
  Array.iteri
    (fun number l ->
      let stock = (w * s.items) + l.item in
      let q = get "stock" stock s_quantity in
      set "stock" stock s_quantity
        (if q >= l.qty + 10 then q - l.qty else q - l.qty + 91);
      insert "order_line"
        V.
          [|
            VInt o_id;
            VInt d;
            VInt w;
            VInt number;
            VInt l.item;
            VInt w;
            VDate t.entry;
            VInt l.qty;
            VInt l.amount;
            VStr "new-order";
          |])
    t.lines;
  ignore (Trace.span Trace.k_commit (fun () -> Client.commit c))

type system = {
  cat : Storage.Catalog.t;
  env : Durability.Faultio.t;
  durable : Durable.t;
  attach_s : float;
  srv : Server.t;
  listen : Unix.file_descr;
  sock : string;
  server : unit Domain.t;
  client : Client.t;
}

let setup () =
  let cat = (Ch.build ~scale ()).Ch.cat in
  let env = Durability.Faultio.memory () in
  let durable, attach_s = Trace.time (fun () -> Durable.attach env cat) in
  let srv = Server.create (Mvcc.create cat) in
  (* relative to the run directory, which is the working directory: a
     unix socket path must stay short *)
  let sock = "oltp.sock" in
  let listen = Server.listen_unix sock in
  let server = Domain.spawn (fun () -> Server.accept_loop srv listen) in
  let client = Client.connect ~id:"perfbench" (Client.Unix_sock sock) in
  { cat; env; durable; attach_s; srv; listen; sock; server; client }

let stop_server sys =
  Client.close sys.client;
  Server.stop sys.srv;
  Server.poke sys.sock;
  (try Unix.close sys.listen with Unix.Unix_error _ -> ());
  Domain.join sys.server;
  try Unix.unlink sys.sock with Unix.Unix_error _ -> ()

(* Transactions between two calibration samples. *)
let every = 64

let run (a : args) =
  if a.trace then Trace.reserve ~capacity:(52 * a.ops);
  let k =
    Calib.create ~capacity:(max (2 * Calib.around) ((a.ops / every) + 2))
  in
  let sys, setup_t = set_up k setup in
  if a.ops = 0 then begin
    stop_server sys;
    Durable.detach sys.durable;
    setup_only setup_t
  end
  else
  let s = sizes sys.cat in
  let mgr = Server.mgr sys.srv in
  let first_next =
    Mvcc.snapshot mgr (fun txn ->
        Array.init s.districts (fun d ->
            V.to_int (Mvcc.read txn "district" d d_next_o_id)))
  in
  let first_o_id = Array.fold_left min max_int first_next in
  let txns =
    make_txns (Rng.create a.seed) ~n:a.ops ~districts:s.districts
      ~customers:s.customers ~items:s.items
  in
  let n = Array.length txns in
  (* timed phase: a calibration sample before every [every]-th transaction
     and after the last; an op is a ping and a transaction *)
  let c = sys.client in
  let busy = Array.make n 0.0 and lat = Array.make n 0.0 in
  let committed = Array.make n false and failures = ref [] in
  let per_district = Array.make s.districts 0 and lines = ref 0 in
  let requests0 = counter "mrdb_server_requests_total" in
  let wal_bytes0 = counter "mrdb_wal_bytes_total" in
  let wal_records0 = counter "mrdb_wal_records_total" in
  let gc0 = gc_mark () in
  Trace.start ();
  Array.iteri
    (fun i t ->
      if i mod every = 0 then Calib.sample k;
      let t0 = Trace.now () in
      (match
         Trace.op i (fun () ->
             Trace.span Trace.k_ping (fun () -> Client.ping c);
             Trace.time (fun () -> new_order c s ~first_o_id t))
       with
      | (), dt ->
          lat.(i) <- dt;
          committed.(i) <- true;
          per_district.(t.district) <- per_district.(t.district) + 1;
          lines := !lines + Array.length t.lines
      | exception e ->
          failures := Printf.sprintf "txn %d: %s" i (describe_exn e) :: !failures;
          (try Client.abort c with _ -> ()));
      busy.(i) <- Trace.since t0)
    txns;
  Calib.sample k;
  Trace.stop ();
  let factors = Calib.op_factors k ~every ~n in
  let run_factor = Calib.factor (Calib.samples k) in
  let gc = gc_layers gc0 ~ops:n in
  let rss = peak_rss_mb () in
  let committed_ids =
    List.filter (fun i -> committed.(i)) (List.init n Fun.id)
  in
  let commits = List.length committed_ids in
  let of_committed xs =
    Array.of_list (List.map (fun i -> xs.(i)) committed_ids)
  in
  let per_commit x = float_of_int x /. float_of_int (max 1 commits) in
  let requests = per_commit (counter "mrdb_server_requests_total" - requests0) in
  let wal_bytes = per_commit (counter "mrdb_wal_bytes_total" - wal_bytes0) in
  let wal_records =
    per_commit (counter "mrdb_wal_records_total" - wal_records0)
  in
  let undo = Mvcc.retained_versions mgr in
  stop_server sys;
  (* invariants: every district's counter advanced by its commits, and the
     two insert targets grew by exactly the committed rows *)
  let check ok msg = if not ok then failures := msg :: !failures in
  Mvcc.snapshot mgr (fun txn ->
      Array.iteri
        (fun d k ->
          let next = V.to_int (Mvcc.read txn "district" d d_next_o_id) in
          check
            (next = first_next.(d) + k)
            (Printf.sprintf "district %d: d_next_o_id %d, expected %d" d next
               (first_next.(d) + k)))
        per_district;
      let grew table before added =
        let rows = Mvcc.visible_rows txn table in
        check (rows = before + added)
          (Printf.sprintf "%s has %d rows, expected %d" table rows
             (before + added))
      in
      grew "orders" s.orders commits;
      grew "order_line" s.order_lines !lines);
  (* every acknowledged commit survives a restart from the flushed bytes *)
  let live = Durability.Snapshot.digest sys.cat in
  Durable.detach sys.durable;
  let recovered, again = Durable.recover sys.env in
  check
    (Durability.Snapshot.digest recovered.Durability.Recover.cat = live)
    "recovered catalog differs from the live one";
  Durable.detach again;
  let pct k p = Trace.percentile (Trace.durations k) p in
  let reads = Trace.durations Trace.k_get in
  let writes =
    Array.append (Trace.durations Trace.k_set) (Trace.durations Trace.k_insert)
  in
  let bpr = bytes_per_row sys.cat in
  let us ~n name s = time_metric ~n ~scale:1e6 name "us" ~factor:run_factor s in
  {
    attempted = n;
    failures = List.rev !failures;
    e2e =
      (setup_metric setup_t
       :: op_metrics ~tail:99.0 ~busy:(of_committed busy)
            ~lat:(of_committed lat) ~factors:(of_committed factors) ())
      @ [ metric "peak_rss_mb" "MB" rss ];
    layers =
      [
        us ~n "wire.ping_us" (pct Trace.k_ping 50.0);
        metric "wire.requests_per_txn" "count" ~n:commits requests;
        us ~n:(Array.length reads) "txn.read_us" (Trace.median reads);
        us ~n:(Array.length writes) "txn.write_us" (Trace.median writes);
        us ~n:commits "txn.commit_p50_us" (pct Trace.k_commit 50.0);
        us ~n:commits "txn.commit_p99_us" (pct Trace.k_commit 99.0);
        metric "txn.undo_versions" "count" (float_of_int undo);
        metric "wal.bytes_per_txn" "B" ~n:commits wal_bytes;
        metric "wal.records_per_txn" "count" ~n:commits wal_records;
        time_metric ~scale:1.0 "wal.attach_s" "s" ~factor:setup_t.factor
          sys.attach_s;
        metric "storage.bytes_per_row" "B/row" bpr;
        kernel_metric k;
      ]
      @ gc;
    counts =
      [
        ("wire.requests_per_txn", requests);
        ("wal.bytes_per_txn", wal_bytes);
        ("wal.records_per_txn", wal_records);
        ("storage.bytes_per_row", bpr);
      ];
  }
