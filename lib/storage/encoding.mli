(** Per-attribute storage encodings — the paper's "partial compression"
    direction (Section VII): dictionary compression suits columns with
    small domains, shrinking the stored width (more tuples per cache line)
    at the price of a dictionary lookup per decoded value. *)

type t =
  | Plain
  | Dict  (** 4-byte codes into a per-attribute dictionary *)
  | Sparse
      (** dense (tid, value) pairs holding only non-null entries — the
          paper's "storage as dense key-value lists" suggestion for sparse
          data.  A sparse attribute must be the only attribute of its
          partition; reads are modeled as binary searches over the pair
          list. *)
  | Rle
      (** run-length encoding: the attribute is stored as a sorted list of
          (start tid, value) runs instead of per-tuple fields.  An RLE
          attribute must be the only attribute of its partition; point
          reads are modeled as binary searches over the run list, while
          scans touch one run entry per run. *)
  | For_bp of int
      (** frame-of-reference with bit(byte)-packed deltas for [Int]/[Date]
          attributes: values are stored as [w]-byte zigzag offsets from a
          per-column base ([w] is 1, 2 or 4); values outside the
          representable window spill to an exception list (the all-ones
          code is the escape marker). *)

val code_width : int
(** Stored width of a dictionary code (4 bytes). *)

val valid_for_width : int -> bool
(** Whether [w] is a legal [For_bp] code width (1, 2 or 4 bytes). *)

val stored_width : Schema.attr -> t -> int
(** Width of the attribute's field under the encoding (including the null
    byte for nullable attributes). *)

val outside_partition : t -> bool
(** The column is stored only in its side region, outside its partition's
    tuples (Sparse, Rle), so it must be alone in its partition. *)

val side_width : Schema.attr -> t -> int
(** Bytes per entry of the attribute's side region: a dictionary value
    (Dict: the value's data width), a (tid, value) pair (Sparse) or
    (start tid, value) run (Rle): 8 + data width, and a (tid, value)
    exception (For_bp: 16).  0 for Plain, which has no side region.

    A column of [n] rows whose side region holds [e] entries occupies
    [n * stored_width + e * side_width] bytes: {!Relation} stores it so and
    {!Compress} predicts it so. *)

val pp : Format.formatter -> t -> unit

val to_code : t -> int
(** Stable one-byte wire code — the serialization hook for durability. *)

val of_code : int -> t
(** Inverse of {!to_code}. @raise Invalid_argument on unknown codes. *)
