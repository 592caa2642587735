(* An engine's traced call sequence, pinned.  [engine_pin.exe ENGINE] runs,
   for each Fuzz.Gen case of seeds 1-100 under the nsm, dsm, pdsm and comp
   layouts, every statement of the episode, followed by eight more join
   queries of [Gen.gen_join_query] when the case has two tables, on the
   named engine (an {!Engines.Engine.name} of {!Engines.Engine.all}) over a
   hierarchy whose walk is the reference tracer behind a recorder.  The
   recorder keeps every [touch], [touch_run] and [clear] the statement
   makes, in order; the statement's digest covers that record and the final
   [Stats.t], [cpu_cycles] included.  One line per case and layout lists
   the digests in episode order.

   Host structures may change; traced touches may not: a change to an
   engine, or to the storage calls it makes, must leave every line as it
   is.  The digests are a function of the cases too, so a change to
   Fuzz.Gen regenerates them, on a tree whose engines are unchanged (see
   dune). *)

module Driver = Fuzz.Driver
module Case = Fuzz.Case
module Engine = Engines.Engine
module Stats = Memsim.Stats

let seeds = List.init 100 (fun i -> i + 1)

(* Episodes draw few joins (two tables in a fifth of the cases, a join in
   a twentieth of their statements), so two-table cases get eight more. *)
let with_joins (c : Case.t) =
  match c.Case.tables with
  | [ t0; t1 ] ->
      let rng = Mrdb_util.Rng.create (1_000_000 + c.Case.seed) in
      let joins =
        List.init 8 (fun _ ->
            Case.Query (Fuzz.Gen.gen_join_query rng t0 t1 c.Case.tables))
      in
      { c with Case.episode = c.Case.episode @ joins }
  | _ -> c

let recorder record params stats =
  let inner = Memsim_ref.walker params stats in
  let add fmt = Printf.bprintf record fmt in
  {
    Memsim.Hierarchy.touch =
      (fun ~addr ~width ~is_write ->
        add "t %d %d %b\n" addr width is_write;
        inner.Memsim.Hierarchy.touch ~addr ~width ~is_write);
    touch_run =
      (fun ~addr ~width ~count ~stride ~is_write ->
        add "r %d %d %d %d %b\n" addr width count stride is_write;
        inner.Memsim.Hierarchy.touch_run ~addr ~width ~count ~stride ~is_write);
    clear =
      (fun () ->
        add "c\n";
        inner.Memsim.Hierarchy.clear ());
  }

let add_stats record (s : Stats.t) =
  Printf.bprintf record "stats %d %d %d %d %d %d %d %d %d %d %d %d\n"
    s.Stats.accesses s.reads s.writes s.l1_misses s.l2_misses s.llc_accesses
    s.llc_seq_misses s.llc_rand_misses s.tlb_misses s.prefetches s.mem_cycles
    s.cpu_cycles

(* The digests of one case's episode under one layout, in episode order.
   Queries run measured (cold caches), DML as the fuzz driver runs it. *)
let digests engine (c : Case.t) mode =
  let record = Buffer.create 4096 in
  let hier = Memsim.Hierarchy.create ~reference:(recorder record) () in
  let cat = Driver.build_catalog ~hier c mode in
  let params = c.Case.params in
  List.map
    (fun stmt ->
      let query, logical =
        match stmt with
        | Case.Query p -> (true, p)
        | Case.Exec p -> (false, p)
      in
      let phys = Relalg.Planner.plan cat logical in
      Buffer.clear record;
      (match
         if query then snd (Engine.run_measured engine cat phys ~params)
         else begin
           ignore (Engine.run engine cat phys ~params);
           Memsim.Hierarchy.snapshot hier
         end
       with
      | stats -> add_stats record stats
      | exception e -> Printf.bprintf record "raised %s\n" (Printexc.to_string e));
      String.sub (Digest.to_hex (Digest.string (Buffer.contents record))) 0 12)
    c.Case.episode

let () =
  let engine =
    match
      List.find_opt
        (fun k -> Array.length Sys.argv = 2 && Engine.name k = Sys.argv.(1))
        Engine.all
    with
    | Some k -> k
    | None ->
        prerr_endline "usage: engine_pin.exe volcano|bulk|vectorized|hyrise|jit";
        exit 2
  in
  List.iter
    (fun seed ->
      let c = with_joins (Fuzz.Gen.case seed) in
      List.iter
        (fun mode ->
          Printf.printf "%d %s %s\n" seed (Case.layout_mode_name mode)
            (String.concat " " (digests engine c mode)))
        Driver.modes)
    seeds
