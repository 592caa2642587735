(** The multi-client server core: an accept loop over the {!Wire} line
    protocol, executing against an {!Mvcc} manager.  Every session is a
    thread of the accept loop's domain, not a domain of its own, as each
    domain more is one more to bring to a halt at every minor collection.
    So the number of clients is bounded by [max_clients] and threads, not
    by the runtime's 128 domains.  This pays off on a server pinned to
    one CPU, where several clients read about even with either.  With
    several clients on a multi-core host it costs throughput: the sessions' wire decoding and encoding, their
    other OCaml work and the accept loop take turns on the domain's
    runtime lock, which the manager mutex did not serialize.  On a 2-vCPU
    host (bench/oltp.ml's served rounds, unpinned) 8 clients commit 41%
    fewer transfers than with a domain per session, 4 clients 21% and
    2 clients 17% fewer.

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
(** [max_clients] (the most live sessions, each a thread) defaults to 8;
    [txn_timeout] (seconds) is handed to every BEGIN. *)

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
(** Accept clients until {!stop}; each client runs in a thread of the
    calling domain, and the loop keeps no handle on it: a session that
    ends says so under the server's lock, and the loop returns once every
    session has ended.  A signal interrupting accept(2) is retried.
    Closing or shutting down the listening socket also ends the loop,
    which then calls {!stop}, so an idle client cannot hold up the
    return. *)

val listen_unix : string -> Unix.file_descr
val listen_tcp : int -> Unix.file_descr

val poke : string -> unit
(** Connect-and-close to a unix socket so a stopped accept loop blocked in
    accept(2) wakes up. *)

val in_process : t -> (string -> 'a) -> 'a
(** [in_process srv f] runs {!accept_loop} for [srv] on a domain of its
    own, over a fresh unix socket in the temporary directory, and [f] on
    the socket's path.  When [f] returns or raises, it stops the server,
    closes the listening socket, {!poke}s the loop, joins its domain and
    unlinks the socket, and only then returns [f]'s result. *)
