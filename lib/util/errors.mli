(** Typed error taxonomy shared across layers. *)

exception Unknown_table of string
(** A catalog lookup named a table that does not exist. *)

exception Corrupt_log of string
(** A durability file (WAL or snapshot) failed structural validation beyond
    what recovery can tolerate. *)

exception Txn_conflict of string
(** First-committer-wins write-write conflict under snapshot isolation. *)

exception Txn_timeout of string
(** The transaction exceeded its per-transaction deadline and was aborted. *)

exception Server_busy of string
(** The server's admission gate shed this connection or request. *)

exception Shard_unavailable of string
(** A distributed plan or two-phase commit needed a shard that is down. *)

exception Txn_indoubt of string
(** Recovery found a prepared transaction whose coordinator decision is
    unreachable — it can neither commit nor abort unilaterally. *)

exception Bad_request of string
(** A peer sent a request the system cannot accept: a line that does not
    parse, one longer than the line cap, or a write that does not fit its
    attribute (wrong arity, attribute or row out of range, NULL into a
    non-nullable attribute, a value the attribute's type cannot take). *)

exception Parse_error of string
(** SQL text that does not parse or does not resolve against the catalog;
    the message is the whole diagnostic. *)

exception Io_error of string
(** A durability file could not be opened, written, renamed, truncated or
    read; the message is the operating system's. *)

val to_diagnostic : exn -> string option
(** A one-line human-readable description for user-facing errors;
    [None] for unexpected exceptions (which should keep their backtrace). *)

val exit_code_of : exn -> int option
(** Distinct process exit code per taxonomy member: generic user errors 1,
    [Txn_conflict] 3, [Txn_timeout] 4, [Server_busy] 5,
    [Shard_unavailable] 6, [Txn_indoubt] 7, [Bad_request] 8 (2 is
    cmdliner's; [Parse_error] and [Io_error] are user errors).
    [None] for unexpected exceptions. *)

val wire_tag_of : exn -> string option
(** Protocol tag for ERR replies ([CONFLICT], [TIMEOUT], [BUSY], ...). *)

val of_wire_tag : string -> string -> exn option
(** [of_wire_tag tag msg] inverts {!wire_tag_of}, rebuilding the exception a
    server ERR reply stands for. *)

val main : prog:string -> (unit -> int) -> unit
(** [main ~prog run] exits with [run ()]'s code.  If [run] raises a
    user-facing exception ({!to_diagnostic} is [Some msg]), it prints
    [prog: msg] on stderr and exits with {!exit_code_of}'s code (1 when it
    has none); any other exception is re-raised with its backtrace.  Both
    binaries' top level. *)
