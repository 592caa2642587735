(* Durability overhead and recovery speed.

   Keeps the hot path honest three ways:
   - simulated counters with and without the WAL observer must be identical
     (logging is additive, off the traced path);
   - wall-clock logging overhead per updated tuple (in-memory sink and a
     real file sink), vs. the non-durable update;
   - snapshot write / full recovery wall-clock vs. relation size;
   - the CH catalog's snapshot: write and CRC-32 throughput, and the minor
     words one checkpoint allocates per row (a count that repeats exactly).

   Results go to BENCH_durability.json. *)

module F = Durability.Faultio
module D = Durability.Durable
module Wal = Durability.Wal

(* The best of [repeat] timings of [f x], each [x] made by [setup] and
   handed to [teardown] after, neither of them timed. *)
let best_time_of ?(repeat = 5) ~setup ~teardown f =
  let best = ref infinity in
  for _ = 1 to repeat do
    let x = setup () in
    let t0 = Unix.gettimeofday () in
    f x;
    let t = Unix.gettimeofday () -. t0 in
    teardown x;
    if t < !best then best := t
  done;
  !best

let best_time ?repeat f = best_time_of ?repeat ~setup:ignore ~teardown:ignore f

let update_sql = "update R set B = 7 where A < 500000"

let build_catalog ?hier n = Workloads.Microbench.build ?hier ~n ()

let update_plan cat =
  Relalg.Planner.plan cat (Relalg.Sql.parse cat update_sql)

let run_update cat =
  ignore
    (Engines.Engine.run Engines.Engine.Jit cat (update_plan cat) ~params:[||])

(* Every measured run updates the same tuples on a fresh catalog.  Only
   the UPDATE is timed: building the catalog, attaching (which writes a
   full snapshot) and detaching happen around it, so the difference to
   the plain run is the logging alone. *)
let time_update ~attach n =
  best_time_of
    ~setup:(fun () ->
      let cat = build_catalog n in
      (cat, attach cat))
    ~teardown:(fun (_, d) -> Option.iter D.detach d)
    (fun (cat, _) -> run_update cat)

let simulated_cycles ~durable n =
  let hier = Memsim.Hierarchy.create () in
  let cat = build_catalog ~hier n in
  let d = if durable then Some (D.attach (F.memory ()) cat) else None in
  let _, st =
    Engines.Engine.run_measured Engines.Engine.Jit cat (update_plan cat)
      ~params:[||]
  in
  Option.iter D.detach d;
  Memsim.Stats.total_cycles st

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrdb_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* The CH catalog at [scale], best-of-3 [Durable.checkpoint] — the writer
   [Durable.attach] seeds its first snapshot with.  Returns (rows, snapshot
   bytes, write seconds, CRC-32 seconds, minor words of one checkpoint). *)
let ch_snapshot scale =
  let cat = (Workloads.Ch.build ~scale ()).Workloads.Ch.cat in
  let rows =
    List.fold_left
      (fun acc name ->
        acc + Storage.Relation.nrows (Storage.Catalog.find cat name))
      0
      (Storage.Catalog.names cat)
  in
  let env = F.memory () in
  let d = D.attach env cat in
  let w0 = Gc.minor_words () in
  D.checkpoint d;
  let words = Gc.minor_words () -. w0 in
  let t_write = best_time ~repeat:3 (fun () -> D.checkpoint d) in
  D.detach d;
  let snap = Option.get (F.read_all env Durability.Snapshot.store_name) in
  let len = Bytes.length snap in
  let t_crc =
    best_time ~repeat:3 (fun () ->
        ignore (Durability.Checksum.bytes snap ~pos:0 ~len))
  in
  (rows, len, t_write, t_crc, words)

let run () =
  Common.header "durability: logging overhead and recovery speed";
  let scale = Common.scale_env "MRDB_BENCH_SCALE" 1.0 in
  let n = int_of_float (50_000.0 *. scale) in
  let updated = ref 0 in

  (* the hot-path contract first *)
  let plain_cycles = simulated_cycles ~durable:false n in
  let logged_cycles = simulated_cycles ~durable:true n in
  if plain_cycles <> logged_cycles then
    failwith "durability perturbed the simulated counters";
  Common.note "simulated cycles identical with and without WAL: %d"
    plain_cycles;

  (* how many tuples the statement updates (for the per-tuple number) *)
  (let cat = build_catalog n in
   let rel = Storage.Catalog.find cat "R" in
   run_update cat;
   for tid = 0 to Storage.Relation.nrows rel - 1 do
     if Storage.Relation.get rel tid 1 = Storage.Value.VInt 7 then
       incr updated
   done);
  Common.note "statement updates %d of %d tuples" !updated n;

  let t_plain = time_update ~attach:(fun _ -> None) n in
  let t_mem =
    time_update ~attach:(fun cat -> Some (D.attach (F.memory ()) cat)) n
  in
  let t_file =
    with_tmpdir (fun dir ->
        time_update ~attach:(fun cat -> Some (D.attach (F.in_dir dir) cat)) n)
  in
  let per_tuple t =
    1e9 *. (t -. t_plain) /. float_of_int (max 1 !updated)
  in
  Printf.printf "  %-28s %10.3f ms\n" "update, no durability"
    (1000. *. t_plain);
  Printf.printf "  %-28s %10.3f ms  (%+.0f ns/tuple)\n" "update, WAL in memory"
    (1000. *. t_mem) (per_tuple t_mem);
  Printf.printf "  %-28s %10.3f ms  (%+.0f ns/tuple)\n" "update, WAL on disk"
    (1000. *. t_file) (per_tuple t_file);

  (* snapshot + recovery vs. size *)
  let sizes =
    List.filter
      (fun s -> s <= n)
      [ n / 25; n / 5; n ]
    |> List.sort_uniq compare
  in
  let snap_rows =
    List.map
      (fun rows ->
        let env = F.memory () in
        let cat = build_catalog rows in
        let d = D.attach env cat in
        let t_snap = best_time ~repeat:3 (fun () -> D.checkpoint d) in
        D.detach d;
        let snap_bytes = F.durable_size env Durability.Snapshot.store_name in
        let t_rec =
          best_time ~repeat:3 (fun () ->
              ignore (Durability.Recover.run env))
        in
        Printf.printf
          "  %8d rows  snapshot %8.3f ms (%7d KiB)  recovery %8.3f ms\n" rows
          (1000. *. t_snap) (snap_bytes / 1024) (1000. *. t_rec);
        (rows, t_snap, snap_bytes, t_rec))
      sizes
  in

  let ch_rows, ch_bytes, t_ch, t_crc, ch_words = ch_snapshot scale in
  let mb_per_s t = float_of_int ch_bytes /. 1e6 /. t in
  let words_per_row = ch_words /. float_of_int (max 1 ch_rows) in
  Printf.printf
    "  CH %8d rows  snapshot %8.3f ms (%7d KiB, %6.1f MB/s)  crc32 %6.1f \
     MB/s  %.2f minor words/row\n"
    ch_rows (1000. *. t_ch) (ch_bytes / 1024) (mb_per_s t_ch)
    (mb_per_s t_crc) words_per_row;

  let bench = "durability" in
  let pt = Common.pt ~bench in
  Common.write_bench "BENCH_durability.json"
    ([
       pt ~metric:"rows" ~unit_:"rows" (float_of_int n);
       pt ~metric:"updated_tuples" (float_of_int !updated);
       pt ~metric:"simulated_cycles_plain" ~unit_:"cycles"
         (float_of_int plain_cycles);
       pt ~metric:"simulated_cycles_logged" ~unit_:"cycles"
         (float_of_int logged_cycles);
       pt ~metric:"update_seconds_plain" ~unit_:"s" t_plain;
       pt ~metric:"update_seconds_wal_memory" ~unit_:"s" t_mem;
       pt ~metric:"update_seconds_wal_file" ~unit_:"s" t_file;
       pt ~metric:"logging_ns_per_tuple_memory" ~unit_:"ns"
         (per_tuple t_mem);
       pt ~metric:"logging_ns_per_tuple_file" ~unit_:"ns" (per_tuple t_file);
       pt ~metric:"snapshot.ch.rows" ~unit_:"rows" (float_of_int ch_rows);
       pt ~metric:"snapshot.ch.bytes" ~unit_:"bytes" (float_of_int ch_bytes);
       pt ~metric:"snapshot.ch.write_mb_per_s" ~unit_:"MB/s" (mb_per_s t_ch);
       pt ~metric:"crc32.mb_per_s" ~unit_:"MB/s" (mb_per_s t_crc);
       pt ~metric:"snapshot.ch.minor_words_per_row" ~unit_:"words"
         words_per_row;
     ]
    @ List.concat_map
        (fun (rows, t_snap, bytes, t_rec) ->
          let m k = Printf.sprintf "snapshot.%d.%s" rows k in
          [
            pt ~metric:(m "snapshot_seconds") ~unit_:"s" t_snap;
            pt ~metric:(m "snapshot_bytes") ~unit_:"bytes"
              (float_of_int bytes);
            pt ~metric:(m "recovery_seconds") ~unit_:"s" t_rec;
          ])
        snap_rows)
