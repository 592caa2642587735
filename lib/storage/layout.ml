type t = {
  parts : int array array;
  attr_to_part : int array; (* attribute index -> partition number *)
  n_attrs : int;
}

let build n_attrs parts =
  let attr_to_part = Array.make n_attrs (-1) in
  Array.iteri
    (fun p attrs ->
      Array.iter
        (fun a ->
          if a < 0 || a >= n_attrs then
            invalid_arg (Printf.sprintf "Layout: attribute %d out of range" a);
          if attr_to_part.(a) <> -1 then
            invalid_arg (Printf.sprintf "Layout: attribute %d in two partitions" a);
          attr_to_part.(a) <- p)
        attrs)
    parts;
  Array.iteri
    (fun a p ->
      if p = -1 then
        invalid_arg (Printf.sprintf "Layout: attribute %d not covered" a))
    attr_to_part;
  { parts; attr_to_part; n_attrs }

let row schema =
  let n = Schema.arity schema in
  build n [| Array.init n (fun i -> i) |]

let column schema =
  let n = Schema.arity schema in
  build n (Array.init n (fun i -> [| i |]))

let of_indices schema groups =
  let n = Schema.arity schema in
  build n (Array.of_list (List.map Array.of_list groups))

let of_names schema groups =
  of_indices schema (List.map (Schema.attr_indices schema) groups)

let partitions t = t.parts

(* serialization hook: the exact partition groups, as lists *)
let to_groups t =
  Array.to_list (Array.map Array.to_list t.parts)

let n_partitions t = Array.length t.parts
let partition_of_attr t a = t.attr_to_part.(a)
let partition_attrs t p = t.parts.(p)

let is_row t = Array.length t.parts = 1
let is_column t =
  Array.length t.parts = t.n_attrs
  && Array.for_all (fun p -> Array.length p = 1) t.parts

let normalize t =
  let groups =
    Array.to_list
      (Array.map
         (fun p ->
           let q = Array.copy p in
           Array.sort Stdlib.compare q;
           q)
         t.parts)
  in
  List.sort Stdlib.compare groups

let equal a b = a.n_attrs = b.n_attrs && normalize a = normalize b

let to_name_groups schema t =
  Array.to_list
    (Array.map
       (fun p ->
         Array.to_list (Array.map (fun a -> (Schema.attr schema a).name) p))
       t.parts)

let kind_label t =
  if is_row t then "row"
  else if is_column t then "column"
  else Printf.sprintf "hybrid(%d)" (Array.length t.parts)

let pp schema ppf t =
  Format.fprintf ppf "@[<hv>{";
  Array.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "{%s}"
        (String.concat ","
           (Array.to_list
              (Array.map (fun a -> (Schema.attr schema a).name) p))))
    t.parts;
  Format.fprintf ppf "}@]"
