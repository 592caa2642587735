type t = Plain | Dict | Sparse | Rle | For_bp of int

let code_width = 4

let valid_for_width w = w = 1 || w = 2 || w = 4

let stored_width (a : Schema.attr) = function
  | Plain -> Schema.stored_width a
  | Dict -> code_width + if a.Schema.nullable then 1 else 0
  | Sparse | Rle -> 0 (* the attribute lives in its side region *)
  | For_bp w -> w + if a.Schema.nullable then 1 else 0

let outside_partition = function Sparse | Rle -> true | _ -> false

let side_width (a : Schema.attr) = function
  | Plain -> 0
  | Dict -> Value.data_width a.Schema.ty
  | Sparse | Rle -> 8 + Value.data_width a.Schema.ty (* tid + value *)
  | For_bp _ -> 16 (* (tid, int value) exception pair *)

let pp ppf = function
  | Plain -> Format.pp_print_string ppf "plain"
  | Dict -> Format.pp_print_string ppf "dict"
  | Sparse -> Format.pp_print_string ppf "sparse"
  | Rle -> Format.pp_print_string ppf "rle"
  | For_bp w -> Format.fprintf ppf "for_bp%d" w

(* serialization hooks: stable one-byte wire codes *)
let to_code = function
  | Plain -> 0
  | Dict -> 1
  | Sparse -> 2
  | Rle -> 3
  | For_bp 1 -> 4
  | For_bp 2 -> 5
  | For_bp 4 -> 6
  | For_bp w -> invalid_arg (Printf.sprintf "Encoding.to_code: for_bp%d" w)

let of_code = function
  | 0 -> Plain
  | 1 -> Dict
  | 2 -> Sparse
  | 3 -> Rle
  | 4 -> For_bp 1
  | 5 -> For_bp 2
  | 6 -> For_bp 4
  | c -> invalid_arg (Printf.sprintf "Encoding.of_code: %d" c)
