type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let row t cells = t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let pad r =
    let len = List.length r in
    if len >= ncols then r else r @ List.init (ncols - len) (fun _ -> "")
  in
  let all = List.map pad all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun r ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) r)
    all;
  let buf = Buffer.create 256 in
  let emit r =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf c;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length c) ' '))
      r;
    Buffer.add_char buf '\n'
  in
  (match all with
  | header :: rest ->
      emit header;
      let total =
        Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
      in
      Buffer.add_string buf (String.make total '-');
      Buffer.add_char buf '\n';
      List.iter emit rest
  | [] -> ());
  Buffer.contents buf

let print t = print_string (render t); print_newline ()
