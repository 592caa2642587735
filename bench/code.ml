(* Code size: the lines of the .ml, .mli and .c files under lib/, and the
   interface the .mli files export: their [val] lines (a line whose first
   word is [val]) and their optional arguments (each [?name:]).  Down-is-good
   trajectory metrics that measure shrinking the same way the other
   sections measure speed, recorded and not gated.  Lines count newlines,
   as `wc -l` does.  Run from the repository root.  Results go to
   BENCH_code.json. *)

let root = "lib"

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then source_files path
         else if List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; ".c" ]
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let lines path =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (read path)

(* Lines matching [^\s*val ]. *)
let vals path =
  let is_val line =
    let n = String.length line in
    let rec first i =
      if i < n && (line.[i] = ' ' || line.[i] = '\t') then first (i + 1) else i
    in
    let i = first 0 in
    i + 4 <= n && String.sub line i 4 = "val "
  in
  List.length (List.filter is_val (String.split_on_char '\n' (read path)))

(* Occurrences of [\?[a-z_0-9]+:]. *)
let optional_args path =
  let s = read path in
  let n = String.length s in
  let name c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let rec count i acc =
    if i >= n then acc
    else if s.[i] <> '?' then count (i + 1) acc
    else
      let j = ref (i + 1) in
      while !j < n && name s.[!j] do
        incr j
      done;
      if !j > i + 1 && !j < n && s.[!j] = ':' then count (!j + 1) (acc + 1)
      else count (i + 1) acc
  in
  count 0 0

let run () =
  Common.header "Code size — lines under lib/";
  if not (Sys.file_exists root && Sys.is_directory root) then
    failwith "code: run from the repository root (lib/ not found)";
  let files = source_files root in
  let sum f files = List.fold_left (fun n path -> n + f path) 0 files in
  let total = sum lines files in
  let mlis = List.filter (fun f -> Filename.check_suffix f ".mli") files in
  let vals = sum vals mlis and optional_args = sum optional_args mlis in
  Common.note "%d lines in %d .ml/.mli/.c files" total (List.length files);
  Common.note "%d vals and %d optional arguments in %d .mli files" vals
    optional_args (List.length mlis);
  let pt metric unit_ n =
    Common.pt ~bench:"code" ~metric ~unit_ (float_of_int n)
  in
  Common.write_bench "BENCH_code.json"
    [
      pt "lib_lines" "lines" total;
      pt "lib_vals" "vals" vals;
      pt "lib_optional_args" "args" optional_args;
    ]
