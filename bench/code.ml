(* Code size: the lines of the .ml, .mli and .c files under lib/, a
   down-is-good trajectory metric that measures shrinking the same way the
   other sections measure speed.  Counts newlines, as `wc -l` does.  Run
   from the repository root.  Results go to BENCH_code.json. *)

let root = "lib"

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then source_files path
         else if List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; ".c" ]
         then [ path ]
         else [])

let lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0

let run () =
  Common.header "Code size — lines under lib/";
  if not (Sys.file_exists root && Sys.is_directory root) then
    failwith "code: run from the repository root (lib/ not found)";
  let files = source_files root in
  let total = List.fold_left (fun n f -> n + lines f) 0 files in
  Common.note "%d lines in %d .ml/.mli/.c files" total (List.length files);
  Common.write_bench "BENCH_code.json"
    [ Common.pt ~bench:"code" ~metric:"lib_lines" ~unit_:"lines" (float_of_int total) ]
