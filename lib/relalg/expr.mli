(** Scalar expressions over the columns of an operator's input.

    Column references are positional ([Col i] is the i-th column of the
    input row); the SQL front end resolves names to positions. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod

type t =
  | Col of int
  | Param of int  (** [$n], 1-based *)
  | Const of Storage.Value.t
  | Cmp of cmp * t * t
  | Like of t * t  (** pattern is an expression evaluating to a string *)
  | And of t list
  | Or of t list
  | Not of t
  | IsNull of t
  | Arith of arith * t * t

val eval : t -> params:Storage.Value.t array -> (int -> Storage.Value.t) -> Storage.Value.t
(** Interpret the expression; comparisons yield [VBool], [Null] propagates
    through arithmetic and comparisons (three-valued logic collapsed to
    [false] at the boolean level, as in SQL [WHERE]). *)

val truthy : Storage.Value.t -> bool
(** SQL boolean coercion: [VBool true] is true, everything else false. *)

type compiled =
  | Int of (unit -> int) * bool
      (** never NULL: a [VInt], or a [VDate] when the flag is set *)
  | Bool of (unit -> bool)  (** a [VBool] *)
  | Value of (unit -> Storage.Value.t)

val compile :
  t -> params:Storage.Value.t array -> (int -> compiled) -> compiled
(** Closure compilation — our stand-in for JiT code generation: parameters
    and constants are resolved once, and the result evaluates the
    expression with no dispatch on expression structure, with {!eval}'s
    semantics.  Columns are read through the given slots; an expression
    whose int operands are all [Int] slots, parameters or constants
    computes on unboxed ints ([x / 0 = 0]).  And/Or short-circuit left to
    right; the two operands of a comparison or an arithmetic node are
    evaluated right to left, on every path. *)

val boxed : compiled -> unit -> Storage.Value.t
(** The value a compiled expression stands for, boxed. *)

val truth : compiled -> unit -> bool
(** {!truthy} of the compiled expression's value, without boxing it. *)

val specialize :
  t -> params:Storage.Value.t array -> (int -> Storage.Value.t) -> unit -> Storage.Value.t
(** {!compile} over boxed columns, boxed. *)

val cols : t -> int list
(** Referenced column positions, sorted, without duplicates. *)

val conjuncts : t -> t list
(** Flatten top-level [And]s. *)

val remap : t -> (int -> int) -> t
(** Rewrite column references. *)

val default_selectivity : t -> float
(** Textbook heuristic selectivity for a predicate (equality 0.01,
    range 0.33, LIKE 0.05, conjunction multiplies, ...). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
