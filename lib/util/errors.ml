(* Typed error taxonomy shared across layers.

   Storage raises these instead of bare [Not_found]-style exceptions so that
   front ends (the CLI in particular) can turn user mistakes into one-line
   diagnostics instead of backtraces.  Internal invariant violations keep
   using [Invalid_argument]/[assert].

   The transaction/server members each map to a distinct process exit code
   (see [exit_code_of]) so scripts driving mrdb_cli or mrdb_server can
   distinguish "retry later" (conflict, busy) from "give up" failures
   without parsing diagnostics.  Code 1 stays the generic user-error code
   and 2 belongs to cmdliner usage errors. *)

exception Unknown_table of string
(** A catalog lookup named a table that does not exist. *)

exception Corrupt_log of string
(** A durability file (WAL or snapshot) failed structural validation beyond
    what recovery can tolerate. *)

exception Txn_conflict of string
(** First-committer-wins write-write conflict under snapshot isolation: a
    transaction tried to commit a write to a cell another transaction
    committed after this one's begin timestamp. *)

exception Txn_timeout of string
(** The transaction exceeded its per-transaction deadline and was aborted. *)

exception Server_busy of string
(** The server's admission gate shed this connection or request instead of
    letting the queue collapse. *)

exception Shard_unavailable of string
(** A distributed plan or two-phase commit needed a shard that is marked
    down; the operation was not applied anywhere. *)

exception Txn_indoubt of string
(** Recovery found a prepared transaction whose coordinator decision is
    unreachable: it can neither commit nor abort unilaterally without
    risking cross-shard divergence. *)

exception Bad_request of string
(** A peer sent a request the system cannot accept: a line that does not
    parse, one longer than the line cap, or a write that does not fit its
    attribute. *)

let to_diagnostic = function
  | Unknown_table t -> Some (Printf.sprintf "unknown table %S" t)
  | Corrupt_log msg -> Some (Printf.sprintf "corrupt durability file: %s" msg)
  | Txn_conflict msg -> Some (Printf.sprintf "transaction conflict: %s" msg)
  | Txn_timeout msg -> Some (Printf.sprintf "transaction timeout: %s" msg)
  | Server_busy msg -> Some (Printf.sprintf "server busy: %s" msg)
  | Shard_unavailable msg -> Some (Printf.sprintf "shard unavailable: %s" msg)
  | Txn_indoubt msg -> Some (Printf.sprintf "transaction in doubt: %s" msg)
  | Bad_request msg -> Some (Printf.sprintf "bad request: %s" msg)
  | Invalid_argument msg -> Some msg
  | Failure msg -> Some msg
  | _ -> None

let exit_code_of = function
  | Unknown_table _ | Corrupt_log _ | Invalid_argument _ | Failure _ -> Some 1
  | Txn_conflict _ -> Some 3
  | Txn_timeout _ -> Some 4
  | Server_busy _ -> Some 5
  | Shard_unavailable _ -> Some 6
  | Txn_indoubt _ -> Some 7
  | Bad_request _ -> Some 8
  | _ -> None

(* Wire tags used by the server protocol; one per taxonomy member so a
   client can map ERR replies back to the same exceptions. *)
let wire_tag_of = function
  | Unknown_table _ -> Some "UNKNOWN_TABLE"
  | Corrupt_log _ -> Some "CORRUPT_LOG"
  | Txn_conflict _ -> Some "CONFLICT"
  | Txn_timeout _ -> Some "TIMEOUT"
  | Server_busy _ -> Some "BUSY"
  | Shard_unavailable _ -> Some "SHARD_UNAVAILABLE"
  | Txn_indoubt _ -> Some "TXN_INDOUBT"
  | Bad_request _ -> Some "BAD_REQUEST"
  | _ -> None

let of_wire_tag tag msg =
  match tag with
  | "UNKNOWN_TABLE" -> Some (Unknown_table msg)
  | "CORRUPT_LOG" -> Some (Corrupt_log msg)
  | "CONFLICT" -> Some (Txn_conflict msg)
  | "TIMEOUT" -> Some (Txn_timeout msg)
  | "BUSY" -> Some (Server_busy msg)
  | "SHARD_UNAVAILABLE" -> Some (Shard_unavailable msg)
  | "TXN_INDOUBT" -> Some (Txn_indoubt msg)
  | "BAD_REQUEST" -> Some (Bad_request msg)
  | _ -> None
