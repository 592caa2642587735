(* Socket client for mrdb_server.

   One request/reply round-trip per call over a line protocol (see Wire).
   ERR replies are raised as their typed taxonomy exceptions, so client
   code handles [Errors.Txn_conflict]/[Txn_timeout]/[Server_busy] exactly
   as it would in-process.

   Reconnect is idempotent: every client announces a stable id in HELLO,
   and every commit carries a token.  The server remembers each client's
   last committed token, so a client that loses the connection after
   sending COMMIT — not knowing whether it applied — reconnects and
   re-sends the same COMMIT token: if the commit already applied, the
   server replies with the cached commit timestamp instead of failing (or
   double-applying). *)

module Errors = Mrdb_util.Errors

type addr = Unix_sock of string | Tcp of string * int

type t = {
  addr : addr;
  id : string;
  mutable ic : in_channel;
  mutable oc : out_channel;
  mutable commit_seq : int;  (* monotonically numbers this client's commits *)
}

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      Unix.ADDR_INET ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* A server that sheds a connection replies and closes at once, so the
   request may hit a closed socket (EPIPE); its reply is still readable. *)
let roundtrip_raw t req =
  (try send_line t.oc (Wire.encode_request req) with Sys_error _ -> ());
  Wire.parse_reply (input_line t.ic)

let hello t =
  match roundtrip_raw t (Wire.Hello t.id) with
  | Wire.Ok_ _ -> ()
  | reply -> (
      match Wire.exn_of_reply reply with
      | Some e -> raise e
      | None -> failwith "client: unexpected HELLO reply")

let connect ?(id = Printf.sprintf "client-%d" (Unix.getpid ())) addr =
  (* a write to a closed socket must fail, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket (Unix.domain_of_sockaddr (sockaddr addr)) Unix.SOCK_STREAM 0 in
  Unix.connect fd (sockaddr addr);
  let t =
    {
      addr;
      id;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      commit_seq = 0;
    }
  in
  hello t;
  t

let reconnect t =
  (try close_out_noerr t.oc with _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr (sockaddr t.addr)) Unix.SOCK_STREAM 0 in
  Unix.connect fd (sockaddr t.addr);
  t.ic <- Unix.in_channel_of_descr fd;
  t.oc <- Unix.out_channel_of_descr fd;
  hello t

let close t =
  (try send_line t.oc (Wire.encode_request Wire.Quit) with _ -> ());
  close_out_noerr t.oc

(* A round-trip that reconnects once on a dead connection and replays the
   request — safe for every request in the protocol except a bare COMMIT,
   which callers must issue through [commit] (token-idempotent). *)
let roundtrip t req =
  match roundtrip_raw t req with
  | reply -> reply
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
      reconnect t;
      roundtrip_raw t req

let fail_reply reply =
  match Wire.exn_of_reply reply with
  | Some e -> raise e
  | None -> failwith "client: unexpected reply"

let ok t req = match roundtrip t req with Wire.Ok_ d -> d | r -> fail_reply r

let value t req = match roundtrip t req with Wire.Val v -> v | r -> fail_reply r

let begin_ t = ignore (ok t Wire.Begin)

let get t ~table ~tid ~attr = value t (Wire.Get { table; tid; attr })

let set t ~table ~tid ~attr v =
  ignore (ok t (Wire.Set { table; tid; attr; value = v }))

let insert t ~table values = ignore (ok t (Wire.Insert { table; values }))

let rows t table =
  match value t (Wire.Rows table) with
  | Storage.Value.VInt n -> n
  | _ -> failwith "client: ROWS returned a non-integer"

let sum t ~table ~attr = value t (Wire.Sum { table; attr })

let abort t = ignore (ok t Wire.Abort)

let ping t = ignore (ok t Wire.Ping)

(* Token-idempotent commit: on a connection failure after the request went
   out, reconnect and re-send the *same* token; the server's cache turns a
   duplicate into the original reply. *)
let commit t =
  t.commit_seq <- t.commit_seq + 1;
  let token = Printf.sprintf "%s#%d" t.id t.commit_seq in
  let req = Wire.Commit (Some token) in
  let reply =
    match roundtrip_raw t req with
    | reply -> reply
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
        reconnect t;
        roundtrip_raw t req
  in
  match reply with
  | Wire.Ok_ detail -> (
      match int_of_string_opt detail with
      | Some ts -> ts
      | None -> failwith "client: COMMIT reply without a timestamp")
  | r -> fail_reply r
