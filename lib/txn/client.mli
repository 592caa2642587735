(** Socket client for mrdb_server (see {!Wire} for the protocol).

    ERR replies raise their typed {!Mrdb_util.Errors} exceptions.  {!set}
    and {!insert} are pipelined: they return before their reply arrives,
    and every other call sends them ahead of its own request and reads
    their replies first.  A write's error therefore surfaces at the next
    call that waits for a reply, and that call raises the first error in
    request order.  The server aborts the transaction of a failed write,
    so the requests sent behind it fail too and a {!commit} among them
    applies nothing.

    The client reconnects transparently on dead connections.  A call
    that had writes in flight raises instead of replaying into the fresh
    session, since the server aborted their transaction with the old one.
    Commits are idempotent across reconnects via per-commit tokens, so a
    commit whose reply was lost is never double-applied. *)

type addr = Unix_sock of string | Tcp of string * int

type t

val max_pending : int
(** The most writes left unacknowledged: a write made when this many are
    in flight first waits for their replies. *)

val connect : ?id:string -> addr -> t
(** [id] is the stable client identity used for idempotent reconnect
    (default derived from the pid). *)

val close : t -> unit

val begin_ : t -> unit
val get : t -> table:string -> tid:int -> attr:int -> Storage.Value.t

val set : t -> table:string -> tid:int -> attr:int -> Storage.Value.t -> unit
(** Returns before the reply arrives; its error, if any, is raised by the
    next call that waits for a reply. *)

val insert : t -> table:string -> Storage.Value.t array -> unit
(** Pipelined like {!set}. *)

val rows : t -> string -> int
val sum : t -> table:string -> attr:int -> Storage.Value.t

val commit : t -> int
(** Returns the commit timestamp.  After a dead connection it re-sends
    its token alone: the server answers a commit it already applied with
    the original timestamp and refuses one it never received, which raises
    [Mrdb_util.Errors.Bad_request] (no transaction is open).
    @raise Mrdb_util.Errors.Txn_conflict on first-committer-wins refusal. *)

val abort : t -> unit
val ping : t -> unit
