(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig9    -- run one experiment
*)

let experiments =
  [
    ("table1b", Table1b.run);
    ("fig3", Fig3.run);
    ("fig6", Fig6.run);
    ("fig8", Fig8.run);
    ("table3", Fig8.table3);
    ("table4", Table4.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("vectors", Vectors.run);
    ("compression", Compression.run);
    ("compress", Compress.run);
    ("sparse", Sparse.run);
    ("adaptive", Adaptive.run);
    ("advisor", Advisor.run);
    ("ablations", Ablations.run);
    ("wallclock", Wallclock.run);
    ("parallel", Parallel.run);
    ("tracefast", Tracefast.run);
    ("memsim_walk", Memsim_walk.run);
    ("durability", Durability_bench.run);
    ("oltp", Oltp.run);
    ("shard", Shard_bench.run);
    ("code", Code.run);
  ]

let () =
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> not (String.equal a "--"))
  in
  let to_run =
    match args with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 1)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
