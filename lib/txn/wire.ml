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

   Decoding reads a line in place, with the grammar of the split-based
   decoders it replaced (the test suite keeps those as its oracle): blank
   ends are dropped as String.trim drops them, fields are the runs
   between single spaces, integers are what int_of_string reads, and an
   escape is what int_of_string ("0x" ^ two bytes) reads.  So some
   non-canonical forms pass on purpose: "+5", "0x10", "0u12" and "1_000"
   are integers, and "%1_" is byte 1.  Whatever a decoder refuses raises
   Errors.Bad_request.

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

(* The encoders write into a caller's buffer with loops, not closures,
   so encoding a line allocates nothing. *)
let add_escaped b s =
  if not (String.exists must_escape s) then Buffer.add_string b s
  else
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if must_escape c then begin
        Buffer.add_char b '%';
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
      end
      else Buffer.add_char b c
    done

let to_string add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let escape s = if String.exists must_escape s then to_string add_escaped s else s

(* A line or field the decoders refuse. *)
let bad fmt = Printf.ksprintf (fun s -> raise (Errors.Bad_request s)) fmt

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> -1

(* The decoders' loops are functions of their own, not local closures,
   which would be allocated at every call. *)

(* The first index in [i, hi) that holds [c], or [hi]. *)
let rec index_to s c i hi =
  if i >= hi || String.unsafe_get s i = c then i else index_to s c (i + 1) hi

let rec count_in s c i hi acc =
  if i >= hi then acc
  else
    count_in s c (i + 1) hi
      (if String.unsafe_get s i = c then acc + 1 else acc)

(* Decode bytes [i, hi) of [s] into [b] from index [n]; the new length. *)
let rec unescape_into s b i hi n =
  if i >= hi then n
  else
    let c = String.unsafe_get s i in
    let d1 = if c = '%' && i + 2 < hi then hex_value s.[i + 1] else -1 in
    let c2 = if d1 >= 0 then s.[i + 2] else ' ' in
    let d2 = if c2 = '_' then 0 else hex_value c2 in
    if d1 >= 0 && d2 >= 0 then begin
      Bytes.unsafe_set b n
        (Char.unsafe_chr (if c2 = '_' then d1 else (d1 * 16) + d2));
      unescape_into s b (i + 3) hi (n + 1)
    end
    else begin
      Bytes.unsafe_set b n c;
      unescape_into s b (i + 1) hi (n + 1)
    end

(* Bytes [lo, hi) of [s] with each escape decoded, as a string of their
   own: [s] may be a reader's buffer, which the next read overwrites.  An
   escape is a '%' followed by two bytes that [int_of_string ("0x" ^
   them)] reads: a hex digit, then a hex digit or an '_', which
   int_of_string skips, so "%1_" is byte 1.  Any other '%' stands for
   itself. *)
let unescape_sub s lo hi =
  let p = index_to s '%' lo hi in
  if p = hi then String.sub s lo (hi - lo)
  else begin
    let b = Bytes.create (hi - lo) in
    Bytes.blit_string s lo b 0 (p - lo);
    Bytes.sub_string b 0 (unescape_into s b p hi (p - lo))
  end

let unescape s =
  if String.contains s '%' then unescape_sub s 0 (String.length s) else s

(* ------------------------------------------------------------------ *)
(* Values                                                             *)
(* ------------------------------------------------------------------ *)

(* The digits of [-n], for [n <= 0]. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [i] in decimal, as "%d" prints it.  The digits come from -|i|, which
   exists for every int, min_int included. *)
let add_int b i =
  if i < 0 then Buffer.add_char b '-';
  add_digits b (if i > 0 then -i else i)

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
  for i = 0 to Array.length vs - 1 do
    if i > 0 then Buffer.add_char b '|';
    add_value b (Array.unsafe_get vs i)
  done

let encode_value = to_string add_value

(* Decoding works on a byte range [lo, hi) of the line, so a field is
   never copied out to be parsed; only a string value or a name becomes a
   string of its own. *)

let rec same s w i lo hi =
  i >= hi
  || String.unsafe_get s i = String.unsafe_get w (i - lo)
     && same s w (i + 1) lo hi

(* Whether bytes [lo, hi) of [s] are [w]. *)
let sub_is s lo hi w = hi - lo = String.length w && same s w lo lo hi

(* Bytes [lo, hi) of [s] as a string of their own. *)
let field s lo hi = String.sub s lo (hi - lo)

exception Not_int

let int_slow s lo hi =
  match int_of_string_opt (field s lo hi) with
  | Some i -> i
  | None -> raise Not_int

(* The decimal digits [i, hi) of [s] after [acc], or -1 at a non-digit. *)
let rec digits s i hi acc =
  if i >= hi then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        digits s (i + 1) hi ((acc * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* Bytes [lo, hi) of [s] as [int_of_string] reads them.  A plain decimal
   (an optional '-' and at most 18 digits, so it cannot overflow) is read
   digit by digit; any other form ("+5", "0x10", "1_000", 19 digits and
   more) goes through int_of_string itself.
   @raise Not_int where int_of_string fails. *)
let int_sub s lo hi =
  let neg = lo < hi && String.unsafe_get s lo = '-' in
  let d = if neg then lo + 1 else lo in
  let v = if hi - d < 1 || hi - d > 18 then -1 else digits s d hi 0 in
  if v < 0 then int_slow s lo hi else if neg then -v else v

let value_sub s lo hi =
  if sub_is s lo hi "null" then Value.Null
  else if hi - lo < 2 || String.unsafe_get s (lo + 1) <> ':' then
    bad "wire: bad value %S" (field s lo hi)
  else
    let p = lo + 2 in
    match String.unsafe_get s lo with
    | 'i' -> (
        match int_sub s p hi with
        | i -> Value.VInt i
        | exception Not_int -> bad "wire: bad int %S" (field s lo hi))
    | 'd' -> (
        match int_sub s p hi with
        | d -> Value.VDate d
        | exception Not_int -> bad "wire: bad date %S" (field s lo hi))
    | 'f' -> (
        match float_of_string_opt (String.sub s p (hi - p)) with
        | Some f -> Value.VFloat f
        | None -> bad "wire: bad float %S" (field s lo hi))
    | 'b' ->
        if sub_is s p hi "true" then Value.VBool true
        else if sub_is s p hi "false" then Value.VBool false
        else bad "wire: bad bool %S" (field s lo hi)
    | 's' -> Value.VStr (unescape_sub s p hi)
    | _ -> bad "wire: bad value tag %S" (field s lo hi)

(* The '|'-separated values in [lo, hi), decoded into an array sized by
   counting the separators first. *)
let rec fill_values vs s k i hi =
  let e = index_to s '|' i hi in
  Array.unsafe_set vs k (value_sub s i e);
  if e < hi then fill_values vs s (k + 1) (e + 1) hi

let values_sub s lo hi =
  let vs = Array.make (1 + count_in s '|' lo hi 0) Value.Null in
  fill_values vs s 0 lo hi;
  vs

(* @raise Errors.Bad_request for anything but an encoded value. *)
let decode_value s = value_sub s 0 (String.length s)

let encode_values = to_string add_values

(* @raise Errors.Bad_request unless every '|'-separated field is an
   encoded value. *)
let decode_values s = values_sub s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Table names                                                        *)
(* ------------------------------------------------------------------ *)

(* The table names a connection sent last, so a name it repeats is not
   copied again.  Only a name sent without escapes is kept, as its bytes
   on the wire are then the name itself; a new one takes the slot after
   the one filled last. *)
type names = { slots : string array; mutable next : int }

let names () = { slots = Array.make 8 ""; next = 0 }

let rec find_name c s lo hi i =
  if i >= Array.length c.slots then raise Not_found
  else
    let n = Array.unsafe_get c.slots i in
    if sub_is s lo hi n then n else find_name c s lo hi (i + 1)

(* The table name in bytes [lo, hi) of [s]. *)
let name_sub c s lo hi =
  if index_to s '%' lo hi < hi then unescape_sub s lo hi
  else
    match find_name c s lo hi 0 with
    | n -> n
    | exception Not_found ->
        let n = String.sub s lo (hi - lo) in
        c.slots.(c.next) <- n;
        c.next <- (c.next + 1) mod Array.length c.slots;
        n

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

let add_int_field b i =
  Buffer.add_char b ' ';
  add_int b i

let add_request b req =
  match req with
  | Hello id ->
      Buffer.add_string b "HELLO ";
      add_escaped b id
  | Begin -> Buffer.add_string b "BEGIN"
  | Get { table; tid; attr } ->
      Buffer.add_string b "GET ";
      add_escaped b table;
      add_int_field b tid;
      add_int_field b attr
  | Set { table; tid; attr; value } ->
      Buffer.add_string b "SET ";
      add_escaped b table;
      add_int_field b tid;
      add_int_field b attr;
      Buffer.add_char b ' ';
      add_value b value
  | Insert { table; values } ->
      Buffer.add_string b "INSERT ";
      add_escaped b table;
      Buffer.add_char b ' ';
      add_values b values
  | Rows table ->
      Buffer.add_string b "ROWS ";
      add_escaped b table
  | Sum { table; attr } ->
      Buffer.add_string b "SUM ";
      add_escaped b table;
      add_int_field b attr
  | Commit None -> Buffer.add_string b "COMMIT"
  | Commit (Some token) ->
      Buffer.add_string b "COMMIT ";
      add_escaped b token
  | Abort -> Buffer.add_string b "ABORT"
  | Ping -> Buffer.add_string b "PING"
  | Quit -> Buffer.add_string b "QUIT"

let encode_request = to_string add_request

(* A line is read as [String.trim] and [String.split_on_char ' '] would
   cut it, without building either: its blank ends are skipped, and its
   fields are the runs between single spaces, so two spaces in a row
   make an empty field. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let rec trim_lo s i hi =
  if i < hi && is_blank (String.unsafe_get s i) then trim_lo s (i + 1) hi
  else i

let rec trim_hi s lo j =
  if j > lo && is_blank (String.unsafe_get s (j - 1)) then trim_hi s lo (j - 1)
  else j

let int_field what s lo hi =
  match int_sub s lo hi with
  | i -> i
  | exception Not_int -> bad "wire: bad %s %S" what (field s lo hi)

let bad_request s lo hi = bad "wire: bad request %S" (field s lo hi)

(* The request in bytes [lo0, hi0) of [s], its table names looked up in
   [names].
   @raise Errors.Bad_request for a line that is no request. *)
let parse_request_sub names s lo0 hi0 =
  let lo = trim_lo s lo0 hi0 in
  let hi = trim_hi s lo hi0 in
  (* the verb is [lo, e0); field k ends at [ek] *)
  let e0 = index_to s ' ' lo hi in
  match count_in s ' ' e0 hi 1 with
  | 1 ->
      if sub_is s lo e0 "BEGIN" then Begin
      else if sub_is s lo e0 "COMMIT" then Commit None
      else if sub_is s lo e0 "ABORT" then Abort
      else if sub_is s lo e0 "PING" then Ping
      else if sub_is s lo e0 "QUIT" then Quit
      else bad_request s lo0 hi0
  | 2 ->
      if sub_is s lo e0 "HELLO" then Hello (unescape_sub s (e0 + 1) hi)
      else if sub_is s lo e0 "ROWS" then Rows (name_sub names s (e0 + 1) hi)
      else if sub_is s lo e0 "COMMIT" then
        Commit (Some (unescape_sub s (e0 + 1) hi))
      else bad_request s lo0 hi0
  | 3 ->
      let e1 = index_to s ' ' (e0 + 1) hi in
      if sub_is s lo e0 "INSERT" then
        let table = name_sub names s (e0 + 1) e1 in
        Insert { table; values = values_sub s (e1 + 1) hi }
      else if sub_is s lo e0 "SUM" then
        let table = name_sub names s (e0 + 1) e1 in
        Sum { table; attr = int_field "attr" s (e1 + 1) hi }
      else bad_request s lo0 hi0
  | 4 ->
      if sub_is s lo e0 "GET" then
        let e1 = index_to s ' ' (e0 + 1) hi in
        let e2 = index_to s ' ' (e1 + 1) hi in
        let table = name_sub names s (e0 + 1) e1 in
        let tid = int_field "tid" s (e1 + 1) e2 in
        Get { table; tid; attr = int_field "attr" s (e2 + 1) hi }
      else bad_request s lo0 hi0
  | 5 ->
      if sub_is s lo e0 "SET" then
        let e1 = index_to s ' ' (e0 + 1) hi in
        let e2 = index_to s ' ' (e1 + 1) hi in
        let e3 = index_to s ' ' (e2 + 1) hi in
        let table = name_sub names s (e0 + 1) e1 in
        let tid = int_field "tid" s (e1 + 1) e2 in
        let attr = int_field "attr" s (e2 + 1) e3 in
        Set { table; tid; attr; value = value_sub s (e3 + 1) hi }
      else bad_request s lo0 hi0
  | _ -> bad_request s lo0 hi0

(* Each table name is decoded afresh: no name is kept past the line.
   @raise Errors.Bad_request for a line that is no request. *)
let parse_request line =
  parse_request_sub (names ()) line 0 (String.length line)

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

(* The reply in bytes [lo0, hi0) of [s].
   @raise Errors.Bad_request for a line that is no reply. *)
let parse_reply_sub s lo0 hi0 =
  let lo = trim_lo s lo0 hi0 in
  let hi = trim_hi s lo hi0 in
  let e0 = index_to s ' ' lo hi in
  if sub_is s lo e0 "OK" && e0 = hi then Ok_ ""
  else if sub_is s lo e0 "OK" && index_to s ' ' (e0 + 1) hi = hi then
    Ok_ (unescape_sub s (e0 + 1) hi)
  else if sub_is s lo e0 "VAL" && e0 < hi && index_to s ' ' (e0 + 1) hi = hi
  then Val (value_sub s (e0 + 1) hi)
  else if sub_is s lo e0 "ERR" && e0 < hi then
    (* the message is the rest of the line, spaces included *)
    let e1 = index_to s ' ' (e0 + 1) hi in
    Err
      {
        tag = String.sub s (e0 + 1) (e1 - e0 - 1);
        msg = (if e1 < hi then unescape_sub s (e1 + 1) hi else "");
      }
  else bad "wire: bad reply %S" (field s lo0 hi0)

(* @raise Errors.Bad_request for a line that is no reply. *)
let parse_reply line = parse_reply_sub line 0 (String.length line)

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
   read but not yet consumed, and [pos, scan) of them hold no newline.
   [names] are the table names its requests sent last. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable scan : int;
  names : names;
}

let reader fd =
  {
    fd;
    buf = Bytes.create 65536;
    pos = 0;
    len = 0;
    scan = 0;
    names = names ();
  }

let rec newline_from r i =
  if i >= r.len then begin
    r.scan <- i;
    -1
  end
  else if Bytes.unsafe_get r.buf i = '\n' then begin
    r.scan <- i;
    i
  end
  else newline_from r (i + 1)

(* Index of the next newline among the buffered bytes, or -1. *)
let newline r = newline_from r r.scan

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

(* Return once a complete line is buffered.
   @raise End_of_file when the peer closed the connection.
   @raise Errors.Bad_request past [max_line] bytes without a newline. *)
let rec await_line r =
  if newline r < 0 then begin
    fill r;
    await_line r
  end

(* Consume the next line, and decode it with [decode] where it lies in
   the buffer: no line is copied out. *)
let take r decode =
  await_line r;
  let i = newline r in
  let lo = r.pos in
  r.pos <- i + 1;
  r.scan <- r.pos;
  decode r (Bytes.unsafe_to_string r.buf) lo i

(* The next line, without its newline.
   @raise End_of_file when the peer closed the connection.
   @raise Errors.Bad_request past [max_line] bytes without a newline. *)
let read_line r = take r (fun _ s lo hi -> String.sub s lo (hi - lo))

(* The next request, its table names looked up in the reader's.  After
   [await_line], only a line that is no request raises.
   @raise End_of_file when the peer closed the connection.
   @raise Errors.Bad_request past [max_line] bytes without a newline, or
   for a line that is no request. *)
let read_request r = take r (fun r s lo hi -> parse_request_sub r.names s lo hi)

(* The next reply.
   @raise End_of_file when the peer closed the connection.
   @raise Errors.Bad_request past [max_line] bytes without a newline, or
   for a line that is no reply. *)
let read_reply r = take r (fun _ s lo hi -> parse_reply_sub s lo hi)
