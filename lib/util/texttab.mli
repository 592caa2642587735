(** Aligned plain-text tables for benchmark output. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val row : t -> string list -> unit
(** Append a row; short rows are padded with empty cells. *)

val render : t -> string
(** Render with a header separator and right-padded columns. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
