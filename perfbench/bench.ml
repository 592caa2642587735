(* One benchmark workload in this process; run.py is the entry point.

   bench.exe --workload olap|oltp|simulate --seed N --ops N --trace 0|1
             [--spans FILE]

   Prints one JSON object: the ops attempted, the failures with their
   reasons, the end-to-end and per-layer metrics with unit, sample count
   and raw value (times are scaled, see Calib), and the counters that must
   repeat exactly for a seed.  With
   --trace 1 the layer spans are recorded and written to FILE.  With
   --ops 0 it only sets up, and reports setup_s alone. *)

let () =
  let workload = ref "" and seed = ref 0 and ops = ref 0 in
  let trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "olap|oltp|simulate");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--ops", Arg.Set_int ops, "N  timed ops");
      ("--trace", Arg.Set_int trace, "0|1  record layer spans");
      ("--spans", Arg.Set_string spans, "FILE  where to write the spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --ops N [--trace 0|1]";
  let args =
    { Common.seed = !seed; ops = max 0 !ops; trace = !trace = 1 }
  in
  let run =
    match !workload with
    | "olap" -> Olap.run
    | "oltp" -> Oltp.run
    | "simulate" -> Simulate.run
    | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
  in
  let report = run args in
  let report =
    if args.trace then begin
      if !spans <> "" then Trace.write_tsv !spans;
      if !Trace.dropped > 0 then
        Printf.eprintf "bench: %d spans past the reserved capacity were dropped\n"
          !Trace.dropped;
      {
        report with
        layers =
          report.layers
          @ [
              Common.metric "trace.uncovered_share" "ratio" ~n:report.attempted
                (Trace.uncovered_share ());
            ];
      }
    end
    else report
  in
  print_endline (Obs.Json.to_string ~indent:0 (Common.json_of_report report))
