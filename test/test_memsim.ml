(* Tests for the memory-hierarchy simulator: cache behaviour, prefetcher,
   cycle accounting, calibration staircase, and the boundary to the walk's
   C kernel. *)

module Params = Memsim.Params
module Hierarchy = Memsim.Hierarchy
module Stats = Memsim.Stats

(* The cache and prefetcher cases run on the hierarchy and read its
   counters, on geometries small enough to tell each level apart. *)

let tiny_level : Params.level =
  { name = "T"; capacity = 1024; block = 64; latency = 1; assoc = 2 }

(* An L1 of [tiny_level]'s 8 sets of 2 ways, lines of 64 bytes: lines 0, 8
   and 16 share set 0. *)
let l1_params =
  let n = Params.nehalem in
  { n with levels = [| tiny_level; n.levels.(1); n.levels.(2) |] }

let read_line h line = Hierarchy.read h ~addr:(line * 64) ~width:8

(* Whether a read of L1 line [line] hits, by the L1 miss count. *)
let l1_hit h line =
  let before = (Hierarchy.stats h).Stats.l1_misses in
  read_line h line;
  (Hierarchy.stats h).Stats.l1_misses = before

let test_cache_hit_after_insert () =
  let h = Hierarchy.create ~params:l1_params () in
  Alcotest.(check bool) "cold miss" false (l1_hit h 5);
  Alcotest.(check bool) "other set" false (l1_hit h 6);
  Alcotest.(check bool) "warm hit" true (l1_hit h 5)

let test_cache_lru_eviction () =
  let h = Hierarchy.create ~params:l1_params () in
  List.iter (read_line h) [ 0; 8; 16 ];
  (* line 0 was least recently used when 16 filled set 0 *)
  Alcotest.(check bool) "lru gone" false (l1_hit h 0);
  Alcotest.(check bool) "recent kept" true (l1_hit h 16)

let test_cache_lru_refresh () =
  let h = Hierarchy.create ~params:l1_params () in
  (* the hit on 0 makes 8 the least recently used line *)
  List.iter (read_line h) [ 0; 8; 0; 16 ];
  Alcotest.(check bool) "refreshed survives" true (l1_hit h 0);
  Alcotest.(check bool) "stale evicted" false (l1_hit h 8)

let test_cache_clear () =
  let h = Hierarchy.create ~params:l1_params () in
  Alcotest.(check bool) "cold" false (l1_hit h 1);
  read_line h 2;
  Alcotest.(check bool) "warm" true (l1_hit h 1);
  Hierarchy.reset h;
  Alcotest.(check bool) "cleared" false (l1_hit h 1)

(* The L1 and L2 hold one word each, so every read of a word other than the
   one read before it probes the LLC: LLC line [n] is read at [n * 64], and
   again, with no read between, at another of its words. *)
let llc_params (l3 : Params.level) =
  let word name =
    { Params.name; capacity = 8; block = 8; latency = 1; assoc = 1 }
  in
  { Params.nehalem with levels = [| word "L1"; word "L2"; l3 |] }

let llc_line ?(word = 0) h line =
  Hierarchy.read h ~addr:((line * 64) + (word * 8)) ~width:8

(* The change of (random misses, sequential misses, prefetches) that a read
   of LLC line [line] makes. *)
let llc_step ?word h line =
  let s = Hierarchy.stats h in
  let r, q, p = (s.llc_rand_misses, s.llc_seq_misses, s.prefetches) in
  llc_line ?word h line;
  (s.llc_rand_misses - r, s.llc_seq_misses - q, s.prefetches - p)

let step = Alcotest.(triple int int int)

let test_cache_insert_no_demand () =
  let h = Hierarchy.create ~params:(llc_params tiny_level) () in
  llc_line h 20;
  Alcotest.check step "adjacent read prefetches the absent next line" (1, 0, 1)
    (llc_step h 21);
  Alcotest.check step "the prefetched line hits pending" (0, 1, 1)
    (llc_step h 22);
  (* a stream far away: 1000, then 998 (stride -2), then 999 is adjacent
     and asks for 1000, which is resident *)
  llc_line h 1000;
  llc_line h 998;
  Alcotest.check step "resident line not refilled" (1, 0, 0) (llc_step h 999);
  (* a hit, not pending; adjacent to 999, it prefetches 1001 *)
  Alcotest.check step "and not made pending" (0, 0, 1) (llc_step h 1000)

(* The LLC's clear only starts an epoch.  Every line it held, demand-filled
   or prefetched and still pending, must then be absent to a demand probe
   and to a prefetch, over several clears, each set written by the first
   probe that may change it. *)
let test_llc_clear () =
  (* tiny_level: 8 sets of 2 ways.  0, 1 prefetch 2; 4 (stride 3), 5
     prefetch 6: both stay pending *)
  let fill h = List.iter (llc_line h) [ 0; 1; 4; 5 ] in
  let control = Hierarchy.create ~params:(llc_params tiny_level) () in
  fill control;
  Alcotest.check step "without a clear: the demand line hits" (0, 0, 0)
    (llc_step control 0);
  Alcotest.check step "without a clear: the prefetched line is pending"
    (0, 1, 0) (llc_step control 2);
  let h = Hierarchy.create ~params:(llc_params tiny_level) () in
  for round = 1 to 3 do
    let what s = Printf.sprintf "round %d: %s" round s in
    fill h;
    Alcotest.(check int) (what "filled") 2 (Hierarchy.stats h).Stats.prefetches;
    Hierarchy.reset h;
    Alcotest.check step (what "cleared demand line") (1, 0, 0) (llc_step h 0);
    Alcotest.check step (what "cleared pending line") (1, 0, 0)
      (llc_step h 2);
    (* 4 repeats the stride 2 and asks for 6, pending before the clear, in
       a set no probe has written since *)
    Alcotest.check step (what "prefetch of a cleared line") (1, 0, 1)
      (llc_step h 4);
    Alcotest.check step (what "prefetched after the clear") (0, 1, 1)
      (llc_step h 6);
    Hierarchy.reset h
  done

let nehalem_llc = llc_params Params.nehalem.levels.(2)

let test_prefetcher_adjacent () =
  let h = Hierarchy.create ~params:nehalem_llc () in
  Alcotest.check step "first access: nothing" (1, 0, 0) (llc_step h 10);
  Alcotest.check step "adjacent: prefetch" (1, 0, 1) (llc_step h 11);
  Alcotest.check step "the next line was prefetched" (0, 1, 1) (llc_step h 12)

let test_prefetcher_stride () =
  let h = Hierarchy.create ~params:nehalem_llc () in
  llc_line h 100;
  Alcotest.check step "stride not yet confirmed" (1, 0, 0) (llc_step h 104);
  Alcotest.check step "confirmed stride 4" (1, 0, 1) (llc_step h 108);
  Alcotest.check step "line + stride was prefetched" (0, 1, 1) (llc_step h 112)

let test_prefetcher_same_line_quiet () =
  let h = Hierarchy.create ~params:nehalem_llc () in
  llc_line h 50;
  Alcotest.check step "repeat access silent" (0, 0, 0) (llc_step ~word:1 h 50);
  Alcotest.(check int) "both reads reached the LLC" 2
    (Hierarchy.stats h).Stats.llc_accesses

let test_prefetcher_multiple_streams () =
  let h = Hierarchy.create ~params:nehalem_llc () in
  llc_line h 1000;
  llc_line h 5000;
  (* both streams stay tracked *)
  Alcotest.check step "stream A advances" (1, 0, 1) (llc_step h 1001);
  Alcotest.check step "stream B advances" (1, 0, 1) (llc_step h 5001);
  Alcotest.check step "A's next line" (0, 1, 1) (llc_step h 1002);
  Alcotest.check step "B's next line" (0, 1, 1) (llc_step h 5002)

let test_hierarchy_l1_hit_cost () =
  let h = Hierarchy.create () in
  Hierarchy.read h ~addr:64 ~width:8;
  let cold = (Hierarchy.stats h).Stats.mem_cycles in
  Hierarchy.reset_stats h;
  Hierarchy.read h ~addr:64 ~width:8;
  let warm = (Hierarchy.stats h).Stats.mem_cycles in
  Alcotest.(check int) "L1 hit costs exactly l1" 1 warm;
  Alcotest.(check bool) "cold access costs more" true (cold > warm)

let test_hierarchy_word_split () =
  let h = Hierarchy.create () in
  Hierarchy.read h ~addr:0 ~width:32;
  Alcotest.(check int) "32 bytes = 4 word accesses" 4
    (Hierarchy.stats h).Stats.accesses

let test_hierarchy_write_counted () =
  let h = Hierarchy.create () in
  Hierarchy.write h ~addr:0 ~width:8;
  Hierarchy.read h ~addr:8 ~width:8;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "one write" 1 s.Stats.writes;
  Alcotest.(check int) "one read" 1 s.Stats.reads

let test_hierarchy_tracing_toggle () =
  let h = Hierarchy.create () in
  Hierarchy.set_enabled h false;
  Hierarchy.read h ~addr:0 ~width:8;
  Hierarchy.add_cpu h 100;
  Alcotest.(check int) "nothing recorded" 0
    (Stats.total_cycles (Hierarchy.stats h));
  Hierarchy.set_enabled h true;
  Hierarchy.read h ~addr:0 ~width:8;
  Alcotest.(check bool) "recording resumed" true
    ((Hierarchy.stats h).Stats.accesses = 1)

let test_hierarchy_without_tracing_restores () =
  let h = Hierarchy.create () in
  Memsim.Hierarchy.without_tracing h (fun () ->
      Hierarchy.read h ~addr:0 ~width:8);
  Alcotest.(check bool) "re-enabled after thunk" true (Hierarchy.enabled h);
  Alcotest.(check int) "no accesses recorded" 0 (Hierarchy.stats h).Stats.accesses

let test_sequential_scan_prefetched () =
  let h = Hierarchy.create () in
  (* scan 1 MB sequentially: after warm-up, LLC misses should be mostly
     prefetched (sequential) *)
  for i = 0 to (1 lsl 20) / 8 do
    Hierarchy.read h ~addr:(i * 8) ~width:8
  done;
  let s = Hierarchy.stats h in
  Alcotest.(check bool) "mostly sequential misses" true
    (s.Stats.llc_seq_misses > 10 * max 1 s.Stats.llc_rand_misses)

let test_random_access_not_prefetched () =
  let h = Hierarchy.create () in
  let rng = Mrdb_util.Rng.create 99 in
  let region = 4 * 1024 * 1024 in
  for _ = 0 to 20_000 do
    Hierarchy.read h ~addr:(Mrdb_util.Rng.int rng (region / 8) * 8) ~width:8
  done;
  let s = Hierarchy.stats h in
  Alcotest.(check bool) "mostly random misses" true
    (s.Stats.llc_rand_misses > 5 * max 1 s.Stats.llc_seq_misses)

let test_stats_diff_and_add () =
  let a = Stats.create () in
  a.Stats.accesses <- 10;
  a.Stats.mem_cycles <- 100;
  let b = Stats.copy a in
  b.Stats.accesses <- 25;
  b.Stats.mem_cycles <- 260;
  let d = Stats.diff b a in
  Alcotest.(check int) "diff accesses" 15 d.Stats.accesses;
  Alcotest.(check int) "diff cycles" 160 d.Stats.mem_cycles;
  Stats.add a d;
  Alcotest.(check int) "add restores" 25 a.Stats.accesses

let test_calibrator_staircase () =
  let pts = Memsim.Calibrator.run_random ~accesses:50_000 Params.nehalem in
  let value bytes =
    match
      List.find_opt (fun p -> p.Memsim.Calibrator.region_bytes = bytes) pts
    with
    | Some p -> p.Memsim.Calibrator.cycles_per_access
    | None -> Alcotest.fail "missing calibration point"
  in
  let l1 = value 16384 and l2 = value 131072 and l3 = value 4194304 in
  let mem = value (32 * 1024 * 1024) in
  Alcotest.(check bool) "L1 plateau ~1" true (l1 < 1.5);
  Alcotest.(check bool) "L2 plateau above L1" true (l2 > l1 +. 1.0);
  Alcotest.(check bool) "L3 plateau above L2" true (l3 > l2 +. 2.0);
  Alcotest.(check bool) "memory above L3" true (mem > l3 +. 2.0)

let test_calibrator_sequential_flat () =
  let pts = Memsim.Calibrator.run_sequential ~accesses:50_000 Params.nehalem in
  let last = List.nth pts (List.length pts - 1) in
  Alcotest.(check bool) "prefetching keeps sequential cheap" true
    (last.Memsim.Calibrator.cycles_per_access < 8.0)

let test_fit_latencies_recovers () =
  let pts = Memsim.Calibrator.run_random ~accesses:100_000 Params.nehalem in
  let fitted = Memsim.Calibrator.fit_latencies Params.nehalem pts in
  (match List.assoc_opt "L1" fitted with
  | Some l -> Alcotest.(check int) "L1 latency" 1 l
  | None -> Alcotest.fail "no L1 fit");
  match List.assoc_opt "L3" fitted with
  | Some l -> Alcotest.(check bool) "L3 latency near 8" true (abs (l - 8) <= 2)
  | None -> Alcotest.fail "no L3 fit"

(* ------------------------------------------------------------------ *)
(* The walk's prefetcher against the reference tracer's record-based one  *)
(* ------------------------------------------------------------------ *)

(* A move of one of several interleaved cursors: a +-1 step, a run of a
   repeated stride, a repeat of the same line, a jump anywhere, a far jump
   back, or (rarely) a reset of both hierarchies. *)
type pf_move =
  | Step of int
  | Strided of int * int
  | Same
  | Jump of int
  | Back of int
  | Clear

let pf_move_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun up -> Step (if up then 1 else -1)) bool);
        (4, map2 (fun s k -> Strided (s, k)) (int_range (-70) 70) (int_range 1 6));
        (2, return Same);
        (2, map (fun l -> Jump l) (int_range 0 (1 lsl 24)));
        (1, map (fun d -> Back d) (int_range 65 5000));
        (1, return Clear);
      ])

(* Every visit reads another word of its line than the visit before, so
   each one reaches the LLC and the prefetcher; the 256 KiB LLC also
   evicts prefetched lines.  The two walks share no code. *)
let qcheck_prefetcher_matches_records =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 20) (int_range 1 24)
        (list_size (int_range 1 300) (pair (int_range 0 23) pf_move_gen)))
  in
  QCheck.Test.make ~count:300
    ~name:"flat prefetcher decides as the record-based one"
    (QCheck.make gen)
    (fun (streams, cursors, moves) ->
      let params =
        {
          (llc_params
             {
               name = "L3";
               capacity = 256 * 1024;
               block = 64;
               latency = 8;
               assoc = 16;
             })
          with
          prefetch_streams = streams;
        }
      in
      let walk = Hierarchy.create ~params () in
      let records = Memsim_ref.hierarchy ~params () in
      let pos = Array.init cursors (fun c -> (1 lsl 20) + (c * 1000)) in
      let visits = ref 0 in
      let same line =
        incr visits;
        List.iter
          (fun h -> llc_line ~word:(!visits land 7) h line)
          [ walk; records ];
        Hierarchy.stats walk = Hierarchy.stats records
      in
      List.for_all
        (fun (c, move) ->
          let c = c mod cursors in
          let visit l =
            pos.(c) <- abs l;
            same pos.(c)
          in
          match move with
          | Step d -> visit (pos.(c) + d)
          | Strided (s, k) ->
              let rec run k = k = 0 || (visit (pos.(c) + s) && run (k - 1)) in
              run k
          | Same -> visit pos.(c)
          | Jump l -> visit l
          | Back d -> visit (pos.(c) - d)
          | Clear ->
              Hierarchy.reset walk;
              Hierarchy.reset records;
              true)
        moves)

(* ------------------------------------------------------------------ *)
(* The C boundary                                                       *)
(* ------------------------------------------------------------------ *)

(* Each entry point of the walk, at one call per step [i]. *)
let entry_points =
  [
    ("read", fun h i -> Hierarchy.read h ~addr:(i * 72) ~width:8);
    ("write", fun h i -> Hierarchy.write h ~addr:(i * 40) ~width:12);
    ( "read_run",
      fun h i -> Hierarchy.read_run h ~addr:(i * 64) ~width:8 ~count:4 ~stride:24
    );
    ( "write_run",
      fun h i ->
        Hierarchy.write_run h ~addr:(4096 + (i * 96)) ~width:20 ~count:3
          ~stride:(-40) );
    ("reset", fun h i -> if i land 1023 = 0 then Hierarchy.reset h);
  ]

let test_walk_allocates_nothing () =
  let h = Hierarchy.create () in
  List.iter
    (fun (name, call) ->
      let a0 = (Hierarchy.stats h).Stats.accesses in
      let w0 = Gc.minor_words () in
      for i = 1 to 100_000 do
        call h i
      done;
      let w1 = Gc.minor_words () in
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (w1 -. w0);
      if name <> "reset" then
        Alcotest.(check bool) (name ^ ": traced") true
          ((Hierarchy.stats h).Stats.accesses > a0))
    entry_points

(* Each call's [unit] result is stored in the heap, which a full major
   collection then scans: a stub returning garbage instead of [Val_unit]
   crashes here. *)
let test_walk_results_are_values () =
  let h = Hierarchy.create () in
  let results =
    List.map (fun (_, call) -> Array.init 20_000 (fun i -> call h i)) entry_points
  in
  Gc.full_major ();
  Alcotest.(check bool) "every result is ()" true
    (List.for_all (Array.for_all (fun () -> true)) results)

(* A seeded stream of reads, writes and runs over 32 MiB. *)
let replay seed h =
  let st = Random.State.make [| seed |] in
  for _ = 1 to 20_000 do
    let addr = (1 lsl 20) + Random.State.int st (32 lsl 20) in
    let width = 1 + Random.State.int st 24 in
    match Random.State.int st 4 with
    | 0 -> Hierarchy.read h ~addr ~width
    | 1 -> Hierarchy.write h ~addr ~width
    | 2 ->
        Hierarchy.read_run h ~addr ~width
          ~count:(Random.State.int st 64)
          ~stride:8
    | _ ->
        Hierarchy.write_run h ~addr ~width
          ~count:(Random.State.int st 16)
          ~stride:(Random.State.int st 200 - 100)
  done;
  Hierarchy.snapshot h

let test_walk_per_domain () =
  let seeds = [ 3; 11 ] in
  let alone = List.map (fun seed -> replay seed (Hierarchy.create ())) seeds in
  let together =
    List.map
      (fun seed -> Domain.spawn (fun () -> replay seed (Hierarchy.create ())))
      seeds
    |> List.map Domain.join
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same stats on a domain of its own" true (a = b))
    alone together

let test_create_rejects_geometry () =
  let nehalem = Params.nehalem in
  let with_l1 f =
    let l = nehalem.levels in
    { nehalem with levels = [| f l.(0); l.(1); l.(2) |] }
  in
  List.iter
    (fun (what, params) ->
      match Hierarchy.create ~params () with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("assoc 0", with_l1 (fun l -> { l with assoc = 0 }));
      ("block 48", with_l1 (fun l -> { l with block = 48 }));
      ("block 4", with_l1 (fun l -> { l with block = 4 }));
      ("TLB block 0", { nehalem with tlb = { nehalem.tlb with block = 0 } });
      ("0 streams", { nehalem with prefetch_streams = 0 });
      ("65 streams", { nehalem with prefetch_streams = 65 });
      ("two levels", { nehalem with levels = Array.sub nehalem.levels 0 2 });
    ];
  ignore (Hierarchy.create ~params:{ nehalem with prefetch_streams = 64 } ())

let suite =
  [
    Alcotest.test_case "cache hit after insert" `Quick test_cache_hit_after_insert;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache LRU refresh" `Quick test_cache_lru_refresh;
    Alcotest.test_case "cache prefetch insert" `Quick test_cache_insert_no_demand;
    Alcotest.test_case "cache clear" `Quick test_cache_clear;
    Alcotest.test_case "LLC clear starts an epoch" `Quick test_llc_clear;
    Alcotest.test_case "prefetcher adjacent line" `Quick test_prefetcher_adjacent;
    Alcotest.test_case "prefetcher stride detection" `Quick test_prefetcher_stride;
    Alcotest.test_case "prefetcher same line" `Quick test_prefetcher_same_line_quiet;
    Alcotest.test_case "prefetcher streams" `Quick test_prefetcher_multiple_streams;
    Alcotest.test_case "hierarchy L1 hit cost" `Quick test_hierarchy_l1_hit_cost;
    Alcotest.test_case "hierarchy word split" `Quick test_hierarchy_word_split;
    Alcotest.test_case "hierarchy write counted" `Quick test_hierarchy_write_counted;
    Alcotest.test_case "hierarchy tracing toggle" `Quick test_hierarchy_tracing_toggle;
    Alcotest.test_case "hierarchy without_tracing" `Quick test_hierarchy_without_tracing_restores;
    Alcotest.test_case "sequential scan prefetched" `Quick test_sequential_scan_prefetched;
    Alcotest.test_case "random access not prefetched" `Quick test_random_access_not_prefetched;
    Alcotest.test_case "stats diff/add" `Quick test_stats_diff_and_add;
    Alcotest.test_case "calibrator staircase" `Slow test_calibrator_staircase;
    Alcotest.test_case "calibrator sequential flat" `Slow test_calibrator_sequential_flat;
    Alcotest.test_case "calibrator fit" `Slow test_fit_latencies_recovers;
    QCheck_alcotest.to_alcotest qcheck_prefetcher_matches_records;
    Alcotest.test_case "walk calls allocate nothing" `Quick
      test_walk_allocates_nothing;
    Alcotest.test_case "walk results survive a major GC" `Quick
      test_walk_results_are_values;
    Alcotest.test_case "walk per domain" `Quick test_walk_per_domain;
    Alcotest.test_case "create rejects bad geometry" `Quick
      test_create_rejects_geometry;
  ]
