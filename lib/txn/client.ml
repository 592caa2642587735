(* Socket client for mrdb_server.

   Requests travel over a line protocol (see Wire).  SET and INSERT are
   pipelined: they are buffered and sent without waiting for their reply.
   Every call that needs an answer sends them together with its own
   request and reads all their replies in order before its own, so a
   transaction costs one round trip per read, plus BEGIN and COMMIT.  ERR
   replies are raised as their typed taxonomy exceptions, so client code
   handles [Errors.Txn_conflict]/[Txn_timeout]/[Server_busy] exactly as it
   would in-process; a failed write surfaces at the next call that waits.

   Reconnect is idempotent: every client announces a stable id in HELLO,
   and every commit carries a token.  The server remembers each client's
   last committed token, so a client that loses the connection after
   sending COMMIT — not knowing whether it applied — reconnects and
   re-sends the same COMMIT token: if the commit already applied, the
   server replies with the cached commit timestamp instead of failing (or
   double-applying).  Writes are never replayed: they belonged to the
   lost session's transaction, which the server aborts. *)

module Errors = Mrdb_util.Errors

type addr = Unix_sock of string | Tcp of string * int

type t = {
  addr : addr;
  id : string;
  mutable reader : Wire.reader;
  mutable oc : out_channel;
  out : Buffer.t;  (* the request being encoded, reused *)
  mutable pending : int;  (* requests sent or buffered, replies unread *)
  mutable commit_seq : int;  (* monotonically numbers this client's commits *)
}

(* The most writes left unacknowledged.  A batch's replies then stay far
   below a socket buffer (an OK is 3 bytes and the server bounds an ERR
   message), so the server never blocks writing them while this client
   still blocks writing its requests: a bulk load cannot deadlock. *)
let max_pending = 64

let m_round_trips =
  Obs.Metrics.counter "mrdb_client_round_trips_total"
    ~help:"Replies a client waited for: one per call that needs an answer"

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      Unix.ADDR_INET ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)

let open_connection addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr (sockaddr addr)) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr addr)
   with e ->
     Unix.close fd;
     raise e);
  (Wire.reader fd, Unix.out_channel_of_descr fd)

(* A dead connection can fail a write here only when the channel fills;
   it is left to surface at the next read, like every other error. *)
let buffer t req =
  Buffer.clear t.out;
  Wire.add_request t.out req;
  Buffer.add_char t.out '\n';
  (try Buffer.output_buffer t.oc t.out with Sys_error _ -> ());
  t.pending <- t.pending + 1

(* Send every buffered request and read all their replies.  Every reply
   is read before any is acted on, so the stream stays in sync; then the
   first ERR in request order is raised.  Returns the last reply.  A
   server that sheds a connection replies and closes at once, so the send
   may hit a closed socket (EPIPE); its reply is still readable. *)
let round_trip t =
  (try flush t.oc with Sys_error _ -> ());
  Obs.Metrics.incr m_round_trips;
  let first_err = ref None and last = ref (Wire.Ok_ "") in
  while t.pending > 0 do
    let reply = Wire.read_reply t.reader in
    t.pending <- t.pending - 1;
    if Option.is_none !first_err then first_err := Wire.exn_of_reply reply;
    last := reply
  done;
  match !first_err with Some e -> raise e | None -> !last

let exchange t req =
  buffer t req;
  round_trip t

(* [round_trip] has raised every ERR, so any other reply is a protocol
   violation. *)
let unexpected () = failwith "client: unexpected reply"

let hello t =
  match exchange t (Wire.Hello t.id) with
  | Wire.Ok_ _ -> ()
  | _ -> unexpected ()

let connect ?(id = Printf.sprintf "client-%d" (Unix.getpid ())) addr =
  (* a write to a closed socket must fail, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let reader, oc = open_connection addr in
  let out = Buffer.create 256 in
  let t = { addr; id; reader; oc; out; pending = 0; commit_seq = 0 } in
  hello t;
  t

let reconnect t =
  close_out_noerr t.oc;
  t.pending <- 0;
  let reader, oc = open_connection t.addr in
  t.reader <- reader;
  t.oc <- oc;
  hello t

let close t =
  buffer t Wire.Quit;
  close_out_noerr t.oc

(* Run [f t x], which sends and reads; on a dead connection, reconnect.
   Then [f] runs again only if no write was in flight: pipelined writes
   die with the old session's transaction, and the fresh session knows
   nothing of it.  [replay_always] is for COMMIT, whose token makes a
   replay safe.  [f] and [x] come apart, so a call allocates no closure. *)
let with_reconnect ?(replay_always = false) t f x =
  let writes = t.pending in
  match f t x with
  | reply -> reply
  | exception (End_of_file | Unix.Unix_error _) ->
      reconnect t;
      if writes > 0 && not replay_always then
        failwith
          (Printf.sprintf
             "client: connection lost with %d write(s) unacknowledged; their \
              transaction was aborted"
             writes)
      else f t x

let call t req = with_reconnect t exchange req

let ok t req = match call t req with Wire.Ok_ d -> d | _ -> unexpected ()

let value t req = match call t req with Wire.Val v -> v | _ -> unexpected ()

(* A write waits only when [max_pending] are already unacknowledged. *)
let write t req =
  if t.pending >= max_pending then
    ignore (with_reconnect t (fun t () -> round_trip t) ());
  buffer t req

let begin_ t = ignore (ok t Wire.Begin)

let get t ~table ~tid ~attr = value t (Wire.Get { table; tid; attr })

let set t ~table ~tid ~attr v = write t (Wire.Set { table; tid; attr; value = v })

let insert t ~table values = write t (Wire.Insert { table; values })

let rows t table =
  match value t (Wire.Rows table) with
  | Storage.Value.VInt n -> n
  | _ -> failwith "client: ROWS returned a non-integer"

let sum t ~table ~attr = value t (Wire.Sum { table; attr })

let abort t = ignore (ok t Wire.Abort)

let ping t = ignore (ok t Wire.Ping)

(* Token-idempotent commit: on a connection failure after the request went
   out, reconnect and re-send the *same* token alone; the server's cache
   turns a duplicate into the original reply, and a commit that never
   arrived finds no transaction in the fresh session and is refused. *)
let commit t =
  t.commit_seq <- t.commit_seq + 1;
  let token = t.id ^ "#" ^ string_of_int t.commit_seq in
  let reply =
    with_reconnect ~replay_always:true t exchange (Wire.Commit (Some token))
  in
  match reply with
  | Wire.Ok_ detail -> (
      match int_of_string_opt detail with
      | Some ts -> ts
      | None -> failwith "client: COMMIT reply without a timestamp")
  | _ -> unexpected ()
