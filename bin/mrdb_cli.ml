(* mrdb — command-line front end.

   Loads one of the built-in demo databases (the paper's benchmarks), then
   runs SQL, explains plans through the cost model, renders the JiT C code,
   optimizes layouts, or calibrates the memory-hierarchy model. *)

open Cmdliner

(* A demo database with its query mix, on a simulated memory hierarchy. *)
let load_workload db scale =
  Workloads.build ~hier:(Memsim.Hierarchy.create ()) db ~scale

let load_db db scale = fst (load_workload db scale)

let db_arg =
  let doc =
    Printf.sprintf "Demo database to load (%s)."
      (String.concat ", " Workloads.names)
  in
  Arg.(value & opt (enum (List.map (fun d -> (d, d)) Workloads.names)) "sd"
       & info [ "d"; "db" ] ~docv:"DB" ~doc)

let scale_arg =
  Arg.(value & opt float 0.2
       & info [ "s"; "scale" ] ~docv:"SCALE" ~doc:"Data scale factor.")

let engine_arg =
  let engines =
    List.map
      (fun e -> (Engines.Engine.name e, e))
      Engines.Engine.all_with_compiled
  in
  Arg.(value & opt (enum engines) Engines.Engine.Jit
       & info [ "e"; "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine (volcano, bulk, vectorized, hyrise, jit, \
                 compiled).  'compiled' emits C, builds it with the system \
                 cc and runs native code; plans outside its subset fall \
                 back to jit.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"SQL text.")

let param_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "param" ] ~docv:"VALUE"
           ~doc:"Query parameter (repeat for \\$1, \\$2, ...); integers are \
                 parsed, everything else is a string.")

let parse_params strs =
  Array.of_list
    (List.map
       (fun s ->
         match int_of_string_opt s with
         | Some i -> Storage.Value.VInt i
         | None -> Storage.Value.VStr s)
       strs)

let print_stats st =
  Printf.printf "-- %d cycles (mem %d, cpu %d); llc misses: %d prefetched, %d random\n"
    (Memsim.Stats.total_cycles st)
    st.Memsim.Stats.mem_cycles st.Memsim.Stats.cpu_cycles
    st.Memsim.Stats.llc_seq_misses st.Memsim.Stats.llc_rand_misses

let domains_arg =
  Arg.(value & opt int 1
       & info [ "j"; "domains" ] ~docv:"N"
           ~doc:"Worker domains for morsel-parallel execution (1 = \
                 sequential).  Parallelizable plans report merged per-domain \
                 stats: summed misses, slowest-domain cycles.  The morsel \
                 size is derived from the scanned table's rows and $(docv): \
                 a multiple of 4096 rows, about a 32nd of each domain's \
                 share.")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Execute over a simulated $(docv)-shard cluster: every table \
                 is horizontally scattered over per-node catalogs (each with \
                 its own simulated memory hierarchy and WAL), queries run \
                 through the distributed executor (gather, partial \
                 aggregation, cost-chosen shuffle/broadcast joins), DML \
                 commits with two-phase commit, and the interconnect is \
                 charged per message and per byte (1 = single-node).")

let make_cluster ~shards cat =
  if shards < 1 then failwith "--shards must be >= 1"
  else if shards = 1 then None
  else Some (Shard.Cluster.create ~durable:true ~shards cat)

let untraced_flag =
  Arg.(value & flag
       & info [ "untraced" ]
           ~doc:"Run with the simulator off and report elapsed wall-clock \
                 time instead of simulated cycles, at any $(b,-j).  A \
                 morsel-parallel run also reports its morsel size (the \
                 parallel_morsel_size metric).")

let sample_flag =
  Arg.(value & flag
       & info [ "sample" ]
           ~doc:"Estimate predicate selectivities by sampling the data                  instead of textbook heuristics.")

(* ---- durability --------------------------------------------------- *)

let wal_arg =
  Arg.(value & opt (some string) None
       & info [ "wal" ] ~docv:"FILE"
           ~doc:"Enable durability: write-ahead-log all catalog mutations \
                 to $(docv), flushed at every commit.")

let snapshot_arg =
  Arg.(value & opt (some string) None
       & info [ "snapshot" ] ~docv:"FILE"
           ~doc:"Snapshot file used by checkpoints and recovery (default: \
                 the WAL file with a $(b,.snapshot) suffix).")

let recover_flag =
  Arg.(value & flag
       & info [ "recover" ]
           ~doc:"Rebuild the catalog from the snapshot and WAL instead of \
                 loading a demo database (requires $(b,--wal)).")

let print_warnings ws =
  List.iter (fun w -> Printf.eprintf "mrdb: warning: %s\n%!" w) ws

(* Demo catalog with durability attached, or a catalog recovered from the
   durable state; [k] runs with the catalog and the log is closed after. *)
let with_catalog db scale ~wal ~snapshot ~recover k =
  match wal with
  | None ->
      if recover then failwith "--recover requires --wal FILE";
      k (load_db db scale)
  | Some wal ->
      let env = Durability.Durable.files ?snapshot wal in
      let d =
        if recover then begin
          let hier = Memsim.Hierarchy.create () in
          let r, d = Durability.Durable.recover ~hier env in
          print_warnings r.Durability.Recover.warnings;
          Printf.eprintf
            "mrdb: recovered %d table(s), replayed %d transaction(s)\n%!"
            (List.length (Storage.Catalog.names r.Durability.Recover.cat))
            r.Durability.Recover.replayed;
          d
        end
        else Durability.Durable.attach env (load_db db scale)
      in
      Fun.protect
        ~finally:(fun () -> Durability.Durable.detach d)
        (fun () -> k (Durability.Durable.catalog d))

let plan_of ~sample cat sql params =
  let logical = Relalg.Sql.parse cat sql in
  if sample then Relalg.Planner.plan ~sample_with:params cat logical
  else Relalg.Planner.plan cat logical

(* ---- metrics export ----------------------------------------------- *)

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"After the command, export the process metrics registry to \
                 $(docv): Prometheus text format if it ends in $(b,.prom), \
                 JSON otherwise.")

let export_metrics = Option.iter Obs.Metrics.export

let run_cmd =
  let run db scale engine domains untraced shards sql params sample wal
      snapshot recover metrics =
    (with_catalog db scale ~wal ~snapshot ~recover @@ fun cat ->
     let plan = plan_of ~sample cat sql (parse_params params) in
     match make_cluster ~shards cat with
     | Some cl ->
         Fun.protect
           ~finally:(fun () -> Shard.Cluster.close cl)
           (fun () ->
             let result, m =
               Shard.Exec.run_measured ~engine
                 ~params:(parse_params params) ~coord:cat cl plan
             in
             Format.printf "%a" Engines.Runtime.pp_result result;
             Printf.printf "-- %d rows (%d shards)\n"
               (List.length result.Engines.Runtime.rows)
               shards;
             print_stats m.Shard.Exec.stats;
             Printf.printf
               "-- net: %d message(s), %d byte(s), %d cycles; total with \
                interconnect: %d cycles\n"
               m.Shard.Exec.net_messages m.Shard.Exec.net_bytes
               m.Shard.Exec.net_cycles
               (Shard.Exec.total_cycles m))
     | None ->
     if untraced then begin
       (* every morsel-parallel run sets the gauge; one that is not split
          leaves the 0 *)
       let morsel_size = Engines.Parallel.morsel_size_gauge () in
       Obs.Metrics.set morsel_size 0.;
       let t0 = Unix.gettimeofday () in
       let result =
         Memsim.Hierarchy.untraced (Storage.Catalog.hier cat) (fun () ->
             Engines.Engine.run ~domains engine cat plan
               ~params:(parse_params params))
       in
       let dt = Unix.gettimeofday () -. t0 in
       Format.printf "%a" Engines.Runtime.pp_result result;
       Printf.printf "-- %d rows\n" (List.length result.Engines.Runtime.rows);
       let m = int_of_float (Obs.Metrics.gauge_value morsel_size) in
       Printf.printf "-- %.6fs wall (untraced%s)\n" dt
         (if m > 0 then Printf.sprintf "; morsel size %d" m else "")
     end
     else begin
       let result, st =
         Engines.Engine.run_measured ~domains engine cat plan
           ~params:(parse_params params)
       in
       Format.printf "%a" Engines.Runtime.pp_result result;
       Printf.printf "-- %d rows\n" (List.length result.Engines.Runtime.rows);
       print_stats st
     end);
    export_metrics metrics
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a SQL statement and report simulated cycles, or with \
          $(b,--untraced) the wall-clock time.")
    Term.(
      const run $ db_arg $ scale_arg $ engine_arg $ domains_arg
      $ untraced_flag $ shards_arg $ sql_arg $ param_arg $ sample_flag
      $ wal_arg $ snapshot_arg $ recover_flag $ metrics_arg)

let checkpoint_cmd =
  let checkpoint wal snapshot =
    let r, d =
      Durability.Durable.recover (Durability.Durable.files ?snapshot wal)
    in
    print_warnings r.Durability.Recover.warnings;
    Durability.Durable.checkpoint d;
    Durability.Durable.detach d;
    Printf.printf
      "checkpointed %d table(s) (replayed %d transaction(s), watermark %d); \
       WAL truncated\n"
      (List.length (Storage.Catalog.names r.Durability.Recover.cat))
      r.Durability.Recover.replayed r.Durability.Recover.last_txid
  in
  let wal_req =
    Arg.(required & opt (some string) None
         & info [ "wal" ] ~docv:"FILE" ~doc:"Write-ahead-log file.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Fold the WAL into a fresh snapshot (recover, snapshot, truncate \
          the log).")
    Term.(const checkpoint $ wal_req $ snapshot_arg)

let analyze_flag =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"Also execute the plan on the selected engine and report \
                 memsim-measured per-operator cycles with the cost model's \
                 relative error (EXPLAIN ANALYZE).")

let compress_db_flag =
  Arg.(value & flag
       & info [ "compress" ]
           ~doc:"Apply the compression advisor's plan to every table before \
                 planning: the storage section shows the chosen scheme per \
                 partition and $(b,--analyze) surfaces the decode phases.")

let compress_all cat =
  List.iter
    (fun name ->
      let plan = Storage.Compress.plan (Storage.Catalog.find cat name) in
      if plan <> [] then Storage.Compress.apply cat name plan)
    (Storage.Catalog.names cat)

let advisor_flag =
  Arg.(value & flag
       & info [ "advisor" ]
           ~doc:"Append the layout advisor's section: the IP-optimal \
                 partitioning of every touched table if this query were the \
                 whole workload, with the projected saving, the copy cost \
                 and the repartition-or-keep verdict.")

let explain_cmd =
  let explain db scale engine domains shards sql params sample analyze
      advisor compress =
    let cat = load_db db scale in
    if compress then compress_all cat;
    let params = parse_params params in
    let plan = plan_of ~sample cat sql params in
    let cluster = make_cluster ~shards cat in
    Fun.protect
      ~finally:(fun () -> Option.iter Shard.Cluster.close cluster)
      (fun () ->
        print_string
          (Obs_explain.render ~analyze ~advisor ~engine ~domains ~params
             ?cluster cat plan))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the physical plan with per-operator predicted cost, its \
          access-pattern program, (with $(b,--analyze)) the memsim-measured \
          per-operator cycles and relative error, and (with $(b,--advisor)) \
          the layout advisor's verdict for every touched table.")
    Term.(
      const explain $ db_arg $ scale_arg $ engine_arg $ domains_arg
      $ shards_arg $ sql_arg $ param_arg $ sample_flag $ analyze_flag
      $ advisor_flag $ compress_db_flag)

let codegen_cmd =
  let codegen db scale sql params =
    let cat = load_db db scale in
    let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat sql) in
    match Engines.C_emitter.emit_unit cat plan ~params:(parse_params params) with
    | Ok info -> print_string info.Engines.C_emitter.source
    | Error reason -> Printf.printf "jit fallback: %s\n" reason
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:
         "Print the C99 translation unit the compiled engine builds for the \
          query (the style of the paper's Fig. 2c), or the reason it falls \
          back to Jit.  Parameters shape only the types in the unit; their \
          values are read at run time.")
    Term.(const codegen $ db_arg $ scale_arg $ sql_arg $ param_arg)

let layout_cmd =
  let show db scale =
    let cat = load_db db scale in
    List.iter
      (fun name ->
        let rel = Storage.Catalog.find cat name in
        let schema = Storage.Relation.schema rel in
        Format.printf "%-12s %-10s %a@." name
          (Storage.Layout.kind_label (Storage.Relation.layout rel))
          (Storage.Layout.pp schema)
          (Storage.Relation.layout rel))
      (Storage.Catalog.names cat)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Show the stored layout of every table.")
    Term.(const show $ db_arg $ scale_arg)

(* The demo mix of [db], built with its own catalog so queries and data
   always match. *)
let demo_mix ~cmd db scale =
  match load_workload db scale with
  | _, [] -> failwith (cmd ^ " supports --db sd, ch or cnet")
  | mix -> mix

let optimize_cmd =
  let optimize db scale threshold compress apply =
    let cat, queries = demo_mix ~cmd:"optimize" db scale in
    let wl = Workloads.Workload.plans ~use_indexes:false queries in
    let results =
      Layoutopt.Optimizer.optimize ~compress
        ~algorithm:(Layoutopt.Optimizer.Bpi threshold) cat wl
    in
    List.iter
      (fun (r : Layoutopt.Optimizer.table_result) ->
        let schema =
          Storage.Relation.schema (Storage.Catalog.find cat r.Layoutopt.Optimizer.table)
        in
        Format.printf "%-12s  est %.3g (row %.3g, column %.3g)@.  %a@."
          r.Layoutopt.Optimizer.table r.Layoutopt.Optimizer.estimated_cost
          r.Layoutopt.Optimizer.row_cost r.Layoutopt.Optimizer.column_cost
          (Storage.Layout.pp schema) r.Layoutopt.Optimizer.layout;
        List.iter
          (fun (a, e) ->
            Format.printf "    compress %s: %a@."
              (Storage.Schema.attr schema a).Storage.Schema.name
              Storage.Encoding.pp e)
          r.Layoutopt.Optimizer.encodings)
      results;
    if apply then begin
      Layoutopt.Optimizer.apply cat results;
      Format.printf "applied %d physical designs@." (List.length results)
    end
  in
  let threshold_arg =
    Arg.(value & opt float 0.005
         & info [ "t"; "threshold" ] ~docv:"T"
             ~doc:"BPi relative improvement threshold.")
  in
  let compress_arg =
    Arg.(value & flag
         & info [ "compress" ]
             ~doc:"Search jointly over decomposition and per-column \
                   compression (dictionary, RLE, frame-of-reference, null \
                   suppression).")
  in
  let apply_arg =
    Arg.(value & flag
         & info [ "apply" ]
             ~doc:"Repartition (and recompress) the stored tables to the \
                   chosen designs before exiting.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Run the BPi layout optimizer over the demo workload.")
    Term.(const optimize $ db_arg $ scale_arg $ threshold_arg $ compress_arg
          $ apply_arg)

let advise_cmd =
  let module Advisor = Layoutopt.Advisor in
  let print_recs cat recs =
    List.iter
      (fun (r : Advisor.recommendation) ->
        let schema =
          Storage.Relation.schema (Storage.Catalog.find cat r.Advisor.table)
        in
        Format.printf "%-12s %s  est %.3g -> %.3g  copy %.3g  net %.3g@."
          r.Advisor.table
          (if r.Advisor.profitable then "REPARTITION" else "keep")
          r.Advisor.current_cost r.Advisor.proposed_cost r.Advisor.copy_cost
          r.Advisor.net_saving;
        Format.printf "  %a -> %a@."
          (Storage.Layout.pp schema) r.Advisor.current_layout
          (Storage.Layout.pp schema) r.Advisor.proposed_layout)
      recs
  in
  let advise db scale bpi threshold apply watch metrics =
    let cat, queries = demo_mix ~cmd:"advise" db scale in
    let wl = Workloads.Workload.plans ~use_indexes:false queries in
    let algorithm =
      if bpi then Layoutopt.Optimizer.Bpi threshold
      else Layoutopt.Optimizer.Ip
    in
    (match watch with
    | None ->
        let recs = Advisor.recommend ~algorithm cat wl in
        print_recs cat recs;
        if apply then begin
          let adv = Advisor.create ~algorithm cat in
          let applied = Advisor.apply adv recs in
          Format.printf "applied %d repartitions@." (List.length applied)
        end
    | Some rounds ->
        (* replay the demo mix through the observation window: the advisor
           repartitions online as its view of the workload fills in *)
        let adv =
          Advisor.create ~algorithm ~window:256 ~check_every:32 cat
        in
        for round = 1 to max 1 rounds do
          List.iter
            (fun (plan, freq) ->
              let reps = min 8 (max 1 (int_of_float freq)) in
              for _ = 1 to reps do
                List.iter
                  (fun (r : Advisor.recommendation) ->
                    Format.printf
                      "round %d: repartitioned %s (net saving %.3g)@." round
                      r.Advisor.table r.Advisor.net_saving)
                  (Advisor.observe adv plan)
              done)
            wl
        done;
        Format.printf "watched %d rounds: %d observations, %d repartitions@."
          (max 1 rounds)
          (Advisor.observed adv)
          (List.length (Advisor.applied adv)));
    export_metrics metrics
  in
  let bpi_flag =
    Arg.(value & flag
         & info [ "bpi" ]
             ~doc:"Advise with the BPi heuristic instead of the exact \
                   integer-programming solver.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.005
         & info [ "t"; "threshold" ] ~docv:"T"
             ~doc:"BPi relative improvement threshold (with $(b,--bpi)).")
  in
  let apply_arg =
    Arg.(value & flag
         & info [ "apply" ]
             ~doc:"Repartition the stored tables to every profitable \
                   recommendation before exiting.")
  in
  let watch_arg =
    Arg.(value & opt ~vopt:(Some 8) (some int) None
         & info [ "watch" ] ~docv:"ROUNDS"
             ~doc:"Run the online advisor loop instead of one-shot advice: \
                   replay the demo mix $(docv) times (default 8) through \
                   the sliding observation window, repartitioning (and \
                   reporting) whenever the projected saving beats the copy \
                   cost.")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Run the layout advisor over the demo workload: exact IP \
          partitioning per touched table, with projected savings weighed \
          against the reorganization copy cost.  One-shot by default; \
          $(b,--watch) runs the online loop.")
    Term.(const advise $ db_arg $ scale_arg $ bpi_flag $ threshold_arg
          $ apply_arg $ watch_arg $ metrics_arg)

let export_cmd =
  let table_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc:"Table name.")
  in
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let export db scale table path =
    let cat = load_db db scale in
    Storage.Csv.export (Storage.Catalog.find cat table) path;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a demo table to CSV.")
    Term.(const export $ db_arg $ scale_arg $ table_arg $ path_arg)

let import_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input CSV path.")
  in
  let name_arg =
    Arg.(value & opt string "imported"
         & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Name for the created table.")
  in
  let sql_opt =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"SQL" ~doc:"Query to run after loading.")
  in
  let import path name sql =
    let hier = Memsim.Hierarchy.create () in
    let cat = Storage.Catalog.create ~hier () in
    let rel = Storage.Csv.import_new cat ~name path in
    Format.printf "loaded %d rows into %s: %a@."
      (Storage.Relation.nrows rel) name Storage.Schema.pp
      (Storage.Relation.schema rel);
    match sql with
    | None -> ()
    | Some q ->
        let plan = Relalg.Planner.plan cat (Relalg.Sql.parse cat q) in
        let result, st =
          Engines.Engine.run_measured Engines.Engine.Jit cat plan ~params:[||]
        in
        Format.printf "%a" Engines.Runtime.pp_result result;
        print_stats st
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Load a CSV file into a fresh table (types inferred) and              optionally query it.")
    Term.(const import $ path_arg $ name_arg $ sql_opt)

let fuzz_cmd =
  let fuzz seed cases max_rows mutate no_recovery txn advisor shards clients
      quiet metrics =
    let log msg = if not quiet then Printf.eprintf "mrdb fuzz: %s\n%!" msg in
    let reject msg =
      prerr_endline ("fuzz: " ^ msg);
      exit 2
    in
    if (if txn then 1 else 0) + (if advisor then 1 else 0)
       + (if shards > 1 then 1 else 0)
       > 1
    then reject "--txn, --advisor and --shards are mutually exclusive";
    if txn && mutate then
      reject "--mutate has no episode to weaken under --txn";
    if no_recovery && (txn || advisor || shards > 1) then
      reject "--no-recovery applies only to the engine x layout matrix";
    (* [ok ()] is the success line, formatted after the run *)
    let run axis ok =
      let failures = Fuzz.Harness.fuzz axis ~log ~seed ~cases () in
      export_metrics metrics;
      if failures = [] then print_endline (ok ())
      else begin
        List.iter (Format.printf "%a@." (Fuzz.Harness.pp_report axis)) failures;
        Printf.printf "fuzz: %d of %d case(s) FAILED (seed %d)\n"
          (List.length failures) cases seed;
        exit 1
      end
    in
    if shards > 1 then
      run (Fuzz.Harness.shards ~mutate ~max_rows shards) (fun () ->
          Printf.sprintf
            "fuzz: %d case(s) from seed %d over %d shards: all answers, \
             shard unions and post-recovery digests match the oracle"
            cases seed shards)
    else if advisor then begin
      let repartitions () =
        Obs.Metrics.counter_value Fuzz.Driver.m_advisor_repartitions
      in
      let before = repartitions () in
      run (Fuzz.Harness.advisor ~mutate ~max_rows ()) (fun () ->
          Printf.sprintf
            "fuzz: %d case(s) from seed %d with the online advisor in the \
             loop (%d mid-episode repartition(s)): all answers and final \
             states match the oracle"
            cases seed
            (repartitions () - before))
    end
    else if txn then
      run (Fuzz.Harness.txn ~max_clients:clients ()) (fun () ->
          Printf.sprintf
            "fuzz: %d interleaved histories from seed %d: no divergences from \
             the serial oracle (snapshot isolation holds)"
            cases seed)
    else
      run
        (Fuzz.Harness.matrix ~mutate ~recovery:(not no_recovery) ~max_rows ())
        (fun () ->
          Printf.sprintf
            "fuzz: %d case(s) from seed %d: no divergences across all engine x \
             layout combinations"
            cases seed)
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base seed; case $(i,i) uses seed SEED+$(i,i), so any \
                   single case replays with $(b,--seed) (SEED+i) \
                   $(b,--cases) 1.")
  in
  let cases_arg =
    Arg.(value & opt int 100
         & info [ "cases" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let max_rows_arg =
    Arg.(value & opt int 120
         & info [ "max-rows" ] ~docv:"N"
             ~doc:"Upper bound on generated rows per table.")
  in
  let mutate_flag =
    Arg.(value & flag
         & info [ "mutate" ]
             ~doc:"Self-test: inject a comparison-weakening bug (Lt becomes \
                   Le) into one combination of the episode axis (the \
                   matrix, $(b,--advisor) or $(b,--shards)); the run should \
                   FAIL.  Rejected with $(b,--txn).")
  in
  let no_recovery_flag =
    Arg.(value & flag
         & info [ "no-recovery" ]
             ~doc:"Skip the WAL + crash-recovery replay of the engine x \
                   layout matrix; rejected on the other axes.")
  in
  let quiet_flag =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.")
  in
  let txn_flag =
    Arg.(value & flag
         & info [ "txn" ]
             ~doc:"Fuzz the transaction layer instead: interleaved \
                   multi-client histories against the MVCC manager, \
                   differentially checked against a serial oracle \
                   (SI-admissible equivalence).")
  in
  let advisor_fuzz_flag =
    Arg.(value & flag
         & info [ "advisor" ]
             ~doc:"Fuzz the layout advisor instead: replay each episode \
                   with the online advisor repartitioning tables \
                   mid-episode; results and final table contents must \
                   still match the oracle (layout changes never change \
                   answers).")
  in
  let clients_arg =
    Arg.(value & opt int 3
         & info [ "clients" ] ~docv:"N"
             ~doc:"With $(b,--txn): maximum concurrent clients per history.")
  in
  let shards_fuzz_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fuzz the sharded executor instead: replay each episode \
                   over an $(docv)-shard durable cluster (distributed \
                   plans, two-phase commit); answers, final shard unions \
                   and post-recovery digests must match the oracle.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generated schemas, data and episodes run \
          through every engine x layout combination (plus morsel-parallel \
          execution, metamorphic predicate rewrites and crash recovery) \
          and must match a reference oracle.  Failures are shrunk to a \
          minimal OCaml repro.  With $(b,--txn), fuzzes \
          interleaved multi-client transaction histories against a serial \
          oracle instead; with $(b,--advisor), replays episodes with the \
          online layout advisor repartitioning mid-episode; with \
          $(b,--shards) N, replays episodes over a simulated N-shard \
          cluster with two-phase commit.")
    Term.(
      const fuzz $ seed_arg $ cases_arg $ max_rows_arg $ mutate_flag
      $ no_recovery_flag $ txn_flag $ advisor_fuzz_flag $ shards_fuzz_arg
      $ clients_arg $ quiet_flag $ metrics_arg)

let calibrate_cmd =
  let calibrate () =
    let params = Memsim.Params.nehalem in
    Format.printf "%a@.@." Memsim.Params.pp params;
    let pts = Memsim.Calibrator.run_random ~accesses:150_000 params in
    List.iter
      (fun (p : Memsim.Calibrator.point) ->
        Printf.printf "%10d B  %6.2f cycles/access\n"
          p.Memsim.Calibrator.region_bytes p.Memsim.Calibrator.cycles_per_access)
      pts;
    print_newline ();
    List.iter
      (fun (name, lat) -> Printf.printf "%-8s ~%d cycles\n" name lat)
      (Memsim.Calibrator.fit_latencies params pts)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Run the configuring experiment (Fig. 8) and fit Table III.")
    Term.(const calibrate $ const ())

let main_cmd =
  let doc =
    "memory-resident DBMS with JiT execution and partially decomposed storage"
  in
  Cmd.group
    (Cmd.info "mrdb" ~version:Core.version ~doc)
    [
      run_cmd; explain_cmd; codegen_cmd; layout_cmd; optimize_cmd;
      advise_cmd; export_cmd; import_cmd; calibrate_cmd; checkpoint_cmd;
      fuzz_cmd;
    ]

(* User mistakes (malformed SQL, unknown tables, bad arguments, an unusable
   WAL path) become a one-line diagnostic and a nonzero exit; anything else
   keeps its backtrace.  Taxonomy exceptions exit with their distinct codes
   (conflict 3, timeout 4, busy 5) so scripts can branch on the outcome. *)
let () =
  Mrdb_util.Errors.main ~prog:"mrdb" (fun () -> Cmd.eval ~catch:false main_cmd)
