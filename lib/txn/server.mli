(** The multi-client server core: a domain-per-client accept loop over the
    {!Wire} line protocol, executing against an {!Mvcc} manager.

    Each session executes every complete request line it has buffered
    before it writes the replies it owes, so a pipelined batch costs one
    write(2).  A failed SET or INSERT aborts the session's transaction,
    so a COMMIT pipelined behind it applies nothing.  A line past
    {!Wire.max_line} bytes gets [ERR BAD_REQUEST] and the connection is
    closed.

    Graceful degradation: connections past [max_clients] are shed with
    [ERR BUSY] (never queued); per-transaction timeouts abort with
    [ERR TIMEOUT]; commits carry client tokens and the server caches each
    client's last committed one, so a reconnecting client re-sending a
    COMMIT whose reply was lost gets the original timestamp instead of a
    double-apply. *)

type t

val create : ?max_clients:int -> ?txn_timeout:float -> Mvcc.t -> t
(** [max_clients] defaults to 8; [txn_timeout] (seconds) is handed to
    every BEGIN. *)

val mgr : t -> Mvcc.t

val stop : t -> unit
(** Stop the server: the accept loop exits at the next accepted
    connection (see {!poke}), and every connection it accepted is shut
    down for reading, so its session serves the complete requests it has
    buffered, aborts its open transaction as for a vanished client, and
    returns.  It takes a lock, so a signal handler should shut the
    listening socket down instead (the accept loop then stops the server
    itself). *)

val accept_loop : t -> Unix.file_descr -> unit
(** Accept clients until {!stop}; each client runs in its own domain, all
    joined before returning.  A signal interrupting accept(2) is retried.
    Closing or shutting down the listening socket also ends the loop,
    which then calls {!stop}, so an idle client cannot hold up the
    return. *)

val handle_client : t -> Unix.file_descr -> unit
(** Serve one connection on the calling thread (the accept loop uses this;
    exposed for direct socketpair-style tests). *)

val listen_unix : string -> Unix.file_descr
val listen_tcp : int -> Unix.file_descr

val poke : string -> unit
(** Connect-and-close to a unix socket so a stopped accept loop blocked in
    accept(2) wakes up. *)
