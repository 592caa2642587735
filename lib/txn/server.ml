(* The multi-client server core: session handling, the request executor,
   and the accept loop, which runs each session as a thread of its own
   domain.  bin/mrdb_server wraps this in a CLI; the test suite drives it
   directly over real sockets.

   Graceful degradation lives here:
     - admission gate: connections past [max_clients] are shed with a clean
       `ERR BUSY` reply and closed — never queued;
     - per-transaction timeouts are handed to the MVCC manager, which
       aborts an expired transaction at its next operation (`ERR TIMEOUT`);
     - idempotent commit: each client's last committed token is cached, so
       a client that lost the commit reply re-sends the same token after
       reconnecting and gets the original timestamp instead of a
       double-apply. *)

module Value = Storage.Value
module Errors = Mrdb_util.Errors

type t = {
  mgr : Mvcc.t;
  max_clients : int;
  txn_timeout : float option;
  commit_cache : (string, string * int) Hashtbl.t;
      (* client id -> (last commit token, its commit ts) *)
  cache_m : Mutex.t;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
      (* one per live session, so [stop] can end them *)
  conns_m : Mutex.t;
  ended : Condition.t;  (* signalled under [conns_m] as a session ends *)
}

let create ?(max_clients = 8) ?txn_timeout mgr =
  {
    mgr;
    max_clients;
    txn_timeout;
    commit_cache = Hashtbl.create 16;
    cache_m = Mutex.create ();
    stop = Atomic.make false;
    conns = Hashtbl.create 8;
    conns_m = Mutex.create ();
    ended = Condition.create ();
  }

let mgr t = t.mgr

(* Connections are registered, shut down and closed under [conns_m], so
   [stop] never shuts down a descriptor number a closed connection left
   for reuse, and no connection registers after [stop] has run. *)
let with_conns t f =
  Mutex.lock t.conns_m;
  match f () with
  | r ->
      Mutex.unlock t.conns_m;
      r
  | exception e ->
      Mutex.unlock t.conns_m;
      raise e

(* Set the flag, then shut every live connection down for reading: a
   session waiting in read(2) sees end of file, and one busy with a
   request finishes the requests it has read. *)
let stop t =
  with_conns t (fun () ->
      Atomic.set t.stop true;
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns)

let m_connections =
  Obs.Metrics.counter "mrdb_server_connections_total"
    ~help:"Connections accepted (including shed ones)"

let m_shed =
  Obs.Metrics.counter "mrdb_server_shed_total"
    ~help:"Connections shed by the admission gate with ERR BUSY"

let m_requests =
  Obs.Metrics.counter "mrdb_server_requests_total" ~help:"Requests served"

let m_active_clients =
  Obs.Metrics.gauge "mrdb_server_active_clients" ~help:"Connected clients"

type admission = Admitted | Full | Stopping

(* Register an accepted connection as a session, unless the server is
   stopping or [max_clients] sessions are live. *)
let admit t fd =
  with_conns t (fun () ->
      if Atomic.get t.stop then Stopping
      else if Hashtbl.length t.conns >= t.max_clients then Full
      else begin
        Hashtbl.replace t.conns fd ();
        Obs.Metrics.set m_active_clients
          (float_of_int (Hashtbl.length t.conns));
        Admitted
      end)

(* A session's last act: close its connection and wake an accept loop
   waiting for the sessions to end. *)
let release t fd =
  with_conns t (fun () ->
      Hashtbl.remove t.conns fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Obs.Metrics.set m_active_clients (float_of_int (Hashtbl.length t.conns));
      Condition.broadcast t.ended)

let wait_sessions t =
  with_conns t (fun () ->
      while Hashtbl.length t.conns > 0 do
        Condition.wait t.ended t.conns_m
      done)

(* Per-client commit-latency histogram, registered at the session's first
   commit and kept in the session.  Client ids are outside input, and the
   metrics registry is process-wide and scanned under the lock every
   commit's metric updates take: the name keeps at most
   [client_name_bytes] of the id, mangled (anything non-alphanumeric
   becomes '_') to stay well-formed, and only the first
   [client_histograms] distinct names get a histogram of their own; later
   clients share [mrdb_client_other_txn_seconds]. *)
let client_histograms = 64
let client_name_bytes = 64
let client_names : (string, unit) Hashtbl.t = Hashtbl.create client_histograms
let client_names_m = Mutex.create ()

let client_histogram id =
  let mangled =
    String.map
      (fun c ->
        let c = Char.lowercase_ascii c in
        if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_')
      (String.sub id 0 (min client_name_bytes (String.length id)))
  in
  let name =
    Mutex.protect client_names_m (fun () ->
        if
          Hashtbl.mem client_names mangled
          || Hashtbl.length client_names < client_histograms
        then begin
          Hashtbl.replace client_names mangled ();
          mangled
        end
        else "other")
  in
  Obs.Metrics.histogram
    (Printf.sprintf "mrdb_client_%s_txn_seconds" name)
    ~help:"Begin-to-commit wall latency of this client's committed transactions"

(* ------------------------------------------------------------------ *)
(* One client session                                                 *)
(* ------------------------------------------------------------------ *)

type session = {
  mutable client_id : string;
  mutable commit_hist : Obs.Metrics.histogram Lazy.t;
  mutable txn : Mvcc.txn option;
  mutable txn_started : float;
}

(* Abort the session's open transaction, if any, and forget it. *)
let drop_txn session =
  (match session.txn with
  | Some txn -> (
      match Mvcc.status txn with Mvcc.Active -> Mvcc.abort txn | _ -> ())
  | None -> ());
  session.txn <- None

(* SUM over a column is the engines' SUM aggregate: NULLs skipped, ints
   and dates sum to VInt, floats to VFloat.  Only those types are summed,
   as the aggregate would add a Bool column's values up as 0 and 1. *)
let column_sum srv txn table attr =
  let vs = Mvcc.column txn table attr in
  let schema =
    Storage.Relation.schema (Storage.Catalog.find (Mvcc.catalog srv.mgr) table)
  in
  (match (Storage.Schema.attr schema attr).Storage.Schema.ty with
  | Value.Int | Value.Float | Value.Date -> ()
  | Value.Bool | Value.Varchar _ ->
      raise (Errors.Bad_request "SUM over a non-numeric column"));
  let sum = Relalg.Aggregate.init Relalg.Aggregate.Sum in
  Array.iter (Relalg.Aggregate.step sum) vs;
  Relalg.Aggregate.finish sum

(* A request that needs an open transaction, sent without BEGIN, is the
   client's error: it answers ERR BAD_REQUEST and the session goes on. *)
let require_txn session what =
  match session.txn with
  | Some txn -> txn
  | None ->
      raise
        (Errors.Bad_request (Printf.sprintf "%s outside a transaction" what))

let cached_commit srv session token =
  Mutex.lock srv.cache_m;
  let hit =
    match Hashtbl.find_opt srv.commit_cache session.client_id with
    | Some (t, ts) when Some t = token -> Some ts
    | _ -> None
  in
  Mutex.unlock srv.cache_m;
  hit

let remember_commit srv session token ts =
  match token with
  | None -> ()
  | Some t ->
      Mutex.lock srv.cache_m;
      Hashtbl.replace srv.commit_cache session.client_id (t, ts);
      Mutex.unlock srv.cache_m

let execute srv session (req : Wire.request) : Wire.reply option =
  match req with
  | Wire.Hello id ->
      session.client_id <- id;
      session.commit_hist <- lazy (client_histogram id);
      Some (Wire.Ok_ "mrdb")
  | Wire.Ping -> Some (Wire.Ok_ "")
  | Wire.Quit -> None
  | Wire.Begin ->
      (* a client restarting mid-transaction: drop the stale one *)
      drop_txn session;
      session.txn <- Some (Mvcc.begin_ ?timeout:srv.txn_timeout srv.mgr);
      session.txn_started <- Unix.gettimeofday ();
      Some (Wire.Ok_ (string_of_int (Mvcc.begin_ts (Option.get session.txn))))
  | Wire.Get { table; tid; attr } ->
      Some (Wire.Val (Mvcc.read (require_txn session "GET") table tid attr))
  | Wire.Set { table; tid; attr; value } ->
      Mvcc.update (require_txn session "SET") table tid attr value;
      Some (Wire.Ok_ "")
  | Wire.Insert { table; values } ->
      Mvcc.insert (require_txn session "INSERT") table values;
      Some (Wire.Ok_ "")
  | Wire.Rows table ->
      Some
        (Wire.Val
           (Value.VInt (Mvcc.visible_rows (require_txn session "ROWS") table)))
  | Wire.Sum { table; attr } ->
      Some (Wire.Val (column_sum srv (require_txn session "SUM") table attr))
  | Wire.Abort ->
      (match session.txn with Some txn -> Mvcc.abort txn | None -> ());
      session.txn <- None;
      Some (Wire.Ok_ "")
  | Wire.Commit token -> (
      match cached_commit srv session token with
      | Some ts ->
          (* duplicate of an applied commit (reconnect after a lost
             reply): answer from the cache, apply nothing *)
          session.txn <- None;
          Some (Wire.Ok_ (string_of_int ts))
      | None ->
          let txn = require_txn session "COMMIT" in
          let ts = Mvcc.commit txn in
          session.txn <- None;
          remember_commit srv session token ts;
          Obs.Metrics.observe
            (Lazy.force session.commit_hist)
            (Unix.gettimeofday () -. session.txn_started);
          Some (Wire.Ok_ (string_of_int ts)))

(* Error messages are cut to this many bytes, so that the replies to a
   client's pipelined writes stay small (see Client.max_pending). *)
let max_err_msg = 256

let err_reply e =
  let msg =
    match Errors.to_diagnostic e with
    | Some m -> m
    | None -> Printexc.to_string e
  in
  Wire.Err
    {
      tag = Option.value (Errors.wire_tag_of e) ~default:"ERROR";
      msg =
        (if String.length msg <= max_err_msg then msg
         else String.sub msg 0 max_err_msg);
    }

(* Execute the request line [r] holds.  [None] ends the session. *)
let serve srv session r =
  match Wire.read_request r with
  | exception (Errors.Bad_request _ as e) -> Some (err_reply e)
  | req -> (
      match execute srv session req with
      | reply -> reply
      | exception e ->
          (match (req, e) with
          | (Wire.Set _ | Wire.Insert _), _ ->
              (* the requests pipelined behind a failed write must not
                 commit the rest of its transaction *)
              drop_txn session
          | _, (Errors.Txn_conflict _ | Errors.Txn_timeout _) ->
              (* a failed COMMIT (conflict/timeout) leaves no open txn *)
              session.txn <- None
          | _ -> ());
          Some (err_reply e))

(* Replies are written when no complete request is left in the buffer, so
   a pipelined batch costs one write(2).  Each reply is encoded into one
   buffer the session reuses.  After [stop] the session serves the
   complete requests it has buffered, then returns. *)
let handle_client srv fd =
  let r = Wire.reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let out = Buffer.create 256 in
  let session =
    {
      client_id = "anon";
      commit_hist = lazy (client_histogram "anon");
      txn = None;
      txn_started = 0.0;
    }
  in
  let alive = ref true in
  let send reply =
    Buffer.clear out;
    Wire.add_reply out reply;
    Buffer.add_char out '\n';
    try Buffer.output_buffer oc out
    with Sys_error _ -> (* the client is gone *) alive := false
  in
  let flush_replies () =
    try flush oc with Sys_error _ -> alive := false
  in
  let rec loop () =
    match Wire.await_line r with
    | exception (End_of_file | Unix.Unix_error _) -> ()
    | exception (Errors.Bad_request _ as e) ->
        (* an over-long line: answer once, then drop the connection *)
        send (err_reply e)
    | () ->
        Obs.Metrics.incr m_requests;
        let continue =
          match serve srv session r with
          | Some reply ->
              send reply;
              true
          | None -> false
        in
        let more = Wire.has_line r in
        if not more then flush_replies ();
        if continue && !alive && (more || not (Atomic.get srv.stop)) then
          loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* a vanished client must not pin its snapshot (and with it the undo
         history the GC would otherwise prune): abort anything open *)
      drop_txn session;
      flush_replies ();
      release srv fd)
    loop

let shed fd max_clients =
  Obs.Metrics.incr m_shed;
  let oc = Unix.out_channel_of_descr fd in
  output_string oc
    (Wire.encode_reply
       (Wire.Err
          {
            tag = "BUSY";
            msg = Printf.sprintf "server at capacity (%d clients)" max_clients;
          }));
  output_char oc '\n';
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Each session is a thread of this domain, not a domain of its own:
   every domain more is one more to stop at each minor collection.  The
   sessions then take turns on this domain's runtime lock for all their
   OCaml work, which costs throughput with several clients on several
   cores (see server.mli). *)
let accept_loop srv listen_fd =
  (* a client that vanishes mid-reply must cost its connection, not the
     process: writes to it then fail with EPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec accept () =
    match Unix.accept listen_fd with
    | conn -> Some conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* a signal, whose handler may have stopped the server *)
        if Atomic.get srv.stop then None else accept ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* the shutdown path closed or shut down the listening socket *)
        None
  in
  let rec loop () =
    if not (Atomic.get srv.stop) then
      match accept () with
      | None -> ()
      | Some (fd, _) ->
          Obs.Metrics.incr m_connections;
          (match admit srv fd with
          | Admitted -> (
              try ignore (Thread.create (handle_client srv) fd)
              with Sys_error _ | Failure _ ->
                (* no thread to be had: this connection is dropped, the
                   server goes on *)
                release srv fd)
          | Full -> shed fd srv.max_clients
          | Stopping -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
          loop ()
  in
  loop ();
  (* however the loop ended, end the sessions and wait for them *)
  stop srv;
  wait_sessions srv

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* Wake a [accept_loop] blocked in accept(2) after [stop]: a throwaway
   connection makes it re-check the stop flag. *)
let poke path =
  try
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
    Unix.close fd
  with Unix.Unix_error _ -> ()

(* Numbers [in_process]'s sockets, so that servers run one after another
   or side by side in one process never share a path. *)
let sockets = Atomic.make 0

let in_process srv f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add sockets 1))
  in
  let listen_fd = listen_unix path in
  let loop = Domain.spawn (fun () -> accept_loop srv listen_fd) in
  Fun.protect
    ~finally:(fun () ->
      stop srv;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      poke path;
      Domain.join loop;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f path)
