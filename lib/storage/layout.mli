(** Vertical partitionings of a schema — the PDSM of the paper.

    A layout assigns every attribute of a schema to exactly one partition.
    The row store (NSM, one partition holding everything) and the column
    store (DSM, one partition per attribute) are the two extreme layouts;
    everything in between is a partially decomposed (hybrid) layout. *)

type t

val row : Schema.t -> t
val column : Schema.t -> t

val of_indices : Schema.t -> int list list -> t
(** [of_indices schema groups] builds a layout from attribute-index groups.
    @raise Invalid_argument if the groups are not a partition of the schema's
    attributes. *)

val of_names : Schema.t -> string list list -> t
(** Same, by attribute name. *)

val partitions : t -> int array array
(** Attribute indices per partition, in stored order. *)

val to_groups : t -> int list list
(** The exact partition groups in stored order — the serialization hook
    used by durability; [of_indices schema (to_groups t)] rebuilds an
    identical layout. *)

val n_partitions : t -> int

val partition_of_attr : t -> int -> int
(** Partition number holding the given attribute. *)

val partition_attrs : t -> int -> int array

val is_row : t -> bool
val is_column : t -> bool

val equal : t -> t -> bool
(** Equality up to partition order and attribute order inside a partition. *)

val to_name_groups : Schema.t -> t -> string list list

val kind_label : t -> string
(** ["row"], ["column"] or ["hybrid(k)"] — for benchmark output. *)

val pp : Schema.t -> Format.formatter -> t -> unit
