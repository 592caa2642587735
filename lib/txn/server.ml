(* The multi-client server core: session handling, the request executor,
   and the domain-per-client accept loop.  bin/mrdb_server wraps this in a
   CLI; the test suite drives it directly over real sockets.

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
  active : int Atomic.t;
  commit_cache : (string, string * int) Hashtbl.t;
      (* client id -> (last commit token, its commit ts) *)
  cache_m : Mutex.t;
  stop : bool Atomic.t;
}

let create ?(max_clients = 8) ?txn_timeout mgr =
  {
    mgr;
    max_clients;
    txn_timeout;
    active = Atomic.make 0;
    commit_cache = Hashtbl.create 16;
    cache_m = Mutex.create ();
    stop = Atomic.make false;
  }

let mgr t = t.mgr

let stop t = Atomic.set t.stop true

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

(* Per-client commit-latency histogram, registered at the session's first
   commit and kept in the session.  Client ids are free-form; anything
   non-alphanumeric is mangled to keep the metric name well-formed. *)
let client_histogram id =
  let mangled =
    String.map
      (fun c ->
        let c = Char.lowercase_ascii c in
        if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_')
      id
  in
  Obs.Metrics.histogram
    (Printf.sprintf "mrdb_client_%s_txn_seconds" mangled)
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

let value_sum vs =
  (* SUM over a column: ints (and dates) sum to VInt, any float makes it
     VFloat, NULLs are skipped — matching the engines' SUM aggregate. *)
  let acc_i = ref 0 and acc_f = ref 0.0 and is_float = ref false in
  let seen = ref false in
  Array.iter
    (fun v ->
      match (v : Value.t) with
      | Value.VInt i | Value.VDate i ->
          seen := true;
          acc_i := !acc_i + i
      | Value.VFloat f ->
          seen := true;
          is_float := true;
          acc_f := !acc_f +. f
      | Value.Null -> ()
      | Value.VBool _ | Value.VStr _ ->
          raise (Errors.Bad_request "SUM over a non-numeric column"))
    vs;
  if not !seen then Value.Null
  else if !is_float then Value.VFloat (!acc_f +. float_of_int !acc_i)
  else Value.VInt !acc_i

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
      let txn = require_txn session "SUM" in
      Some (Wire.Val (value_sum (Mvcc.column txn table attr)))
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

(* Execute one request line.  [None] ends the session. *)
let serve srv session line =
  match Wire.parse_request line with
  | exception Failure msg -> Some (err_reply (Errors.Bad_request msg))
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
   a pipelined batch costs one write(2). *)
let handle_client srv fd =
  let r = Wire.reader fd in
  let oc = Unix.out_channel_of_descr fd in
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
    try
      output_string oc (Wire.encode_reply reply);
      output_char oc '\n'
    with Sys_error _ -> (* the client is gone *) alive := false
  in
  let flush_replies () =
    try flush oc with Sys_error _ -> alive := false
  in
  let rec loop () =
    match Wire.read_line r with
    | exception (End_of_file | Unix.Unix_error _) -> ()
    | exception (Errors.Bad_request _ as e) ->
        (* an over-long line: answer once, then drop the connection *)
        send (err_reply e)
    | line ->
        Obs.Metrics.incr m_requests;
        let continue =
          match serve srv session line with
          | Some reply ->
              send reply;
              true
          | None -> false
        in
        if not (Wire.has_line r) then flush_replies ();
        if continue && !alive && not (Atomic.get srv.stop) then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* a vanished client must not pin its snapshot (and with it the undo
         history the GC would otherwise prune): abort anything open *)
      drop_txn session;
      flush_replies ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr srv.active;
      Obs.Metrics.set m_active_clients (float_of_int (Atomic.get srv.active)))
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

let accept_loop srv listen_fd =
  (* a client that vanishes mid-reply must cost its connection, not the
     process: writes to it then fail with EPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domains = ref [] in
  (try
     while not (Atomic.get srv.stop) do
       let fd, _ = Unix.accept listen_fd in
       Obs.Metrics.incr m_connections;
       if Atomic.get srv.stop then (try Unix.close fd with _ -> ())
       else if Atomic.get srv.active >= srv.max_clients then
         shed fd srv.max_clients
       else begin
         Atomic.incr srv.active;
         Obs.Metrics.set m_active_clients (float_of_int (Atomic.get srv.active));
         domains := Domain.spawn (fun () -> handle_client srv fd) :: !domains
       end
     done
   with Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
     (* the shutdown path closed the listening socket under us *)
     ());
  List.iter Domain.join !domains

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
