(** Typed values and their fixed-width storage encoding.

    All attributes are stored at a fixed width so that the address of tuple
    [tid]'s attribute inside a partition is a simple linear function — the
    property the paper's cost model (and any cache-conscious layout
    reasoning) relies on. *)

type ty =
  | Int  (** 64-bit integer, 8 bytes *)
  | Float  (** IEEE double, 8 bytes *)
  | Bool  (** 1 byte *)
  | Date  (** days since epoch, 8 bytes *)
  | Varchar of int  (** zero-padded fixed-size string, [n] bytes *)

type t =
  | Null
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VDate of int
  | VStr of string

val data_width : ty -> int
(** Storage width of the payload in bytes (excluding any null byte). *)

val type_of : t -> ty option
(** [None] for [Null]; [Varchar] values report their actual length. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order: [Null] sorts first; numeric types compare numerically;
    cross-type comparisons fall back to a stable structural order. *)

val equal : t -> t -> bool

val to_int : t -> int
(** Numeric view; raises [Invalid_argument] for non-numeric values. *)

val to_float : t -> float
val to_string_exn : t -> string

val like : t -> pattern:string -> bool
(** SQL [LIKE] with [%] and [_] wildcards over a [VStr]; [Null] never
    matches. *)

val pp : Format.formatter -> t -> unit
val pp_ty : Format.formatter -> ty -> unit
val to_display : t -> string
