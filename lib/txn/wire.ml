(* The server's line protocol: one request or reply per newline-terminated
   line, ASCII, space-separated fields.  Values carry a one-letter type tag
   so the client round-trips types exactly; strings are percent-escaped so
   embedded spaces, pipes, newlines and non-ASCII survive.

     request:  HELLO id | BEGIN | GET t tid attr | SET t tid attr v
             | INSERT t v1|v2|... | ROWS t | SUM t attr | COMMIT [token]
             | ABORT | PING | QUIT
     reply:    OK [detail] | VAL v | ERR TAG message

   ERR tags are the wire form of the Mrdb_util.Errors taxonomy
   (CONFLICT, TIMEOUT, BUSY, BAD_REQUEST, ...), so a client can rebuild
   the typed exception a reply stands for.

   Pipelining.  Every request gets exactly one reply, in request order, so
   the n-th reply on a connection always belongs to its n-th request.  A
   client may therefore send requests without waiting for their replies:
   Client sends SET and INSERT that way and reads their replies together
   with the next request whose answer it needs.  An ERR reply belongs to
   the request in its position, and a failed SET or INSERT aborts the
   session's transaction, so the requests sent behind it in the same
   transaction fail too and a COMMIT among them applies nothing.

   Flush policy.  The server reads requests through [reader], executes
   every complete line already buffered, and writes the replies it owes
   only when no complete line is left, so a pipelined batch costs one
   write(2) each way.  A client must bound the replies it leaves unread
   (Client.max_pending): the server may block writing them, and it stops
   reading while it does.  A line longer than [max_line] bytes is a
   [Bad_request]; the server replies once and closes the connection. *)

module Value = Storage.Value
module Errors = Mrdb_util.Errors

(* ------------------------------------------------------------------ *)
(* Escaping                                                           *)
(* ------------------------------------------------------------------ *)

let must_escape c =
  c <= ' ' || c > '~' || c = '%' || c = '|'

let hex_digits = "0123456789ABCDEF"

let add_escaped b s =
  if not (String.exists must_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        if must_escape c then begin
          Buffer.add_char b '%';
          Buffer.add_char b hex_digits.[Char.code c lsr 4];
          Buffer.add_char b hex_digits.[Char.code c land 15]
        end
        else Buffer.add_char b c)
      s

let to_string add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let escape s = if String.exists must_escape s then to_string add_escaped s else s

let unescape s =
  if not (String.contains s '%') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' && !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code ->
            Buffer.add_char b (Char.chr code);
            i := !i + 3
        | None ->
            Buffer.add_char b s.[!i];
            incr i)
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

(* ------------------------------------------------------------------ *)
(* Values                                                             *)
(* ------------------------------------------------------------------ *)

(* [i] in decimal, as "%d" prints it.  The digits come from -|i|, which
   exists for every int, min_int included. *)
let add_int b i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  in
  if i < 0 then Buffer.add_char b '-';
  digits (if i > 0 then -i else i)

(* The runtime primitive behind "%h", called with the precision and sign
   flag Printf passes it (-6: as many hex digits as the value needs). *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let add_value b = function
  | Value.Null -> Buffer.add_string b "null"
  | Value.VInt i ->
      Buffer.add_string b "i:";
      add_int b i
  | Value.VFloat f ->
      Buffer.add_string b "f:";
      Buffer.add_string b (hexstring_of_float f (-6) '-')
  | Value.VBool v -> Buffer.add_string b (if v then "b:true" else "b:false")
  | Value.VDate d ->
      Buffer.add_string b "d:";
      add_int b d
  | Value.VStr s ->
      Buffer.add_string b "s:";
      add_escaped b s

let add_values b vs =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b '|';
      add_value b v)
    vs

let encode_value = to_string add_value

let decode_value s =
  let payload () = String.sub s 2 (String.length s - 2) in
  if s = "null" then Value.Null
  else if String.length s < 2 || s.[1] <> ':' then
    failwith (Printf.sprintf "wire: bad value %S" s)
  else
    match s.[0] with
    | 'i' -> (
        match int_of_string_opt (payload ()) with
        | Some i -> Value.VInt i
        | None -> failwith (Printf.sprintf "wire: bad int %S" s))
    | 'f' -> (
        match float_of_string_opt (payload ()) with
        | Some f -> Value.VFloat f
        | None -> failwith (Printf.sprintf "wire: bad float %S" s))
    | 'b' -> (
        match payload () with
        | "true" -> Value.VBool true
        | "false" -> Value.VBool false
        | _ -> failwith (Printf.sprintf "wire: bad bool %S" s))
    | 'd' -> (
        match int_of_string_opt (payload ()) with
        | Some d -> Value.VDate d
        | None -> failwith (Printf.sprintf "wire: bad date %S" s))
    | 's' -> Value.VStr (unescape (payload ()))
    | _ -> failwith (Printf.sprintf "wire: bad value tag %S" s)

let encode_values = to_string add_values

let decode_values s =
  Array.of_list (List.map decode_value (String.split_on_char '|' s))

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type request =
  | Hello of string  (** client id, for idempotent reconnect *)
  | Begin
  | Get of { table : string; tid : int; attr : int }
  | Set of { table : string; tid : int; attr : int; value : Value.t }
  | Insert of { table : string; values : Value.t array }
  | Rows of string
  | Sum of { table : string; attr : int }
  | Commit of string option  (** idempotency token *)
  | Abort
  | Ping
  | Quit

let add_request b req =
  let word w = Buffer.add_string b w in
  let field add x =
    Buffer.add_char b ' ';
    add b x
  in
  match req with
  | Hello id ->
      word "HELLO";
      field add_escaped id
  | Begin -> word "BEGIN"
  | Get { table; tid; attr } ->
      word "GET";
      field add_escaped table;
      field add_int tid;
      field add_int attr
  | Set { table; tid; attr; value } ->
      word "SET";
      field add_escaped table;
      field add_int tid;
      field add_int attr;
      field add_value value
  | Insert { table; values } ->
      word "INSERT";
      field add_escaped table;
      field add_values values
  | Rows table ->
      word "ROWS";
      field add_escaped table
  | Sum { table; attr } ->
      word "SUM";
      field add_escaped table;
      field add_int attr
  | Commit None -> word "COMMIT"
  | Commit (Some token) ->
      word "COMMIT";
      field add_escaped token
  | Abort -> word "ABORT"
  | Ping -> word "PING"
  | Quit -> word "QUIT"

let encode_request = to_string add_request

let int_field what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "wire: bad %s %S" what s)

let parse_request line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "HELLO"; id ] -> Hello (unescape id)
  | [ "BEGIN" ] -> Begin
  | [ "GET"; t; tid; attr ] ->
      Get { table = unescape t; tid = int_field "tid" tid;
            attr = int_field "attr" attr }
  | [ "SET"; t; tid; attr; v ] ->
      Set { table = unescape t; tid = int_field "tid" tid;
            attr = int_field "attr" attr; value = decode_value v }
  | [ "INSERT"; t; vs ] -> Insert { table = unescape t; values = decode_values vs }
  | [ "ROWS"; t ] -> Rows (unescape t)
  | [ "SUM"; t; attr ] -> Sum { table = unescape t; attr = int_field "attr" attr }
  | [ "COMMIT" ] -> Commit None
  | [ "COMMIT"; token ] -> Commit (Some (unescape token))
  | [ "ABORT" ] -> Abort
  | [ "PING" ] -> Ping
  | [ "QUIT" ] -> Quit
  | _ -> failwith (Printf.sprintf "wire: bad request %S" line)

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

type reply =
  | Ok_ of string  (** detail, possibly empty *)
  | Val of Value.t
  | Err of { tag : string; msg : string }

let add_reply b = function
  | Ok_ "" -> Buffer.add_string b "OK"
  | Ok_ detail ->
      Buffer.add_string b "OK ";
      add_escaped b detail
  | Val v ->
      Buffer.add_string b "VAL ";
      add_value b v
  | Err { tag; msg } ->
      Buffer.add_string b "ERR ";
      Buffer.add_string b tag;
      Buffer.add_char b ' ';
      add_escaped b msg

let encode_reply = to_string add_reply

let parse_reply line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "OK" ] -> Ok_ ""
  | [ "OK"; detail ] -> Ok_ (unescape detail)
  | [ "VAL"; v ] -> Val (decode_value v)
  | "ERR" :: tag :: rest -> Err { tag; msg = unescape (String.concat " " rest) }
  | _ -> failwith (Printf.sprintf "wire: bad reply %S" line)

(* The typed exception an ERR reply stands for. *)
let exn_of_reply = function
  | Err { tag; msg } -> (
      match Errors.of_wire_tag tag msg with
      | Some e -> Some e
      | None -> Some (Failure (Printf.sprintf "server error %s: %s" tag msg)))
  | Ok_ _ | Val _ -> None

(* ------------------------------------------------------------------ *)
(* Reading lines                                                      *)
(* ------------------------------------------------------------------ *)

(* The longest line either end accepts, newline excluded. *)
let max_line = 1 lsl 20

(* A buffered line reader over a socket.  Bytes [pos, len) of [buf] are
   read but not yet consumed, and [pos, scan) of them hold no newline. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scan : int;
}

let reader fd =
  { fd; buf = Bytes.create 65536; pos = 0; len = 0; scan = 0 }

(* Index of the next newline among the buffered bytes, or -1. *)
let newline r =
  let rec go i =
    if i >= r.len then begin
      r.scan <- i;
      -1
    end
    else if Bytes.unsafe_get r.buf i = '\n' then begin
      r.scan <- i;
      i
    end
    else go (i + 1)
  in
  go r.scan

let has_line r = newline r >= 0

(* Read more bytes after the buffered partial line, first moving it to the
   front of [buf] and, when it fills [buf], doubling [buf] up to room for
   [max_line] bytes and a newline. *)
let fill r =
  let partial = r.len - r.pos in
  Bytes.blit r.buf r.pos r.buf 0 partial;
  r.scan <- r.scan - r.pos;
  r.pos <- 0;
  r.len <- partial;
  if partial = Bytes.length r.buf then begin
    if partial > max_line then
      raise
        (Errors.Bad_request
           ("line longer than " ^ string_of_int max_line ^ " bytes"));
    let grown = Bytes.create (min (2 * partial) (max_line + 1)) in
    Bytes.blit r.buf 0 grown 0 partial;
    r.buf <- grown
  end;
  let rec read () =
    match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  match read () with
  | 0 -> raise End_of_file (* an unterminated last line is dropped *)
  | n -> r.len <- r.len + n

(* The next line, without its newline.
   @raise End_of_file when the peer closed the connection.
   @raise Errors.Bad_request past [max_line] bytes without a newline. *)
let rec read_line r =
  match newline r with
  | -1 ->
      fill r;
      read_line r
  | i ->
      let line = Bytes.sub_string r.buf r.pos (i - r.pos) in
      r.pos <- i + 1;
      r.scan <- r.pos;
      line
