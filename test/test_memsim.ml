(* Tests for the memory-hierarchy simulator: cache behaviour, prefetcher,
   cycle accounting, calibration staircase. *)

module Cache = Memsim.Cache
module Params = Memsim.Params
module Hierarchy = Memsim.Hierarchy
module Prefetcher = Memsim.Prefetcher
module Stats = Memsim.Stats

let tiny_level : Params.level =
  { name = "T"; capacity = 1024; block = 64; latency = 1; assoc = 2 }

let test_cache_hit_after_insert () =
  let c = Cache.create tiny_level in
  Alcotest.(check bool) "cold miss" false (Cache.access c 5);
  Alcotest.(check bool) "warm hit" true (Cache.access c 5)

let test_cache_lru_eviction () =
  (* 1024/64/2 = 8 sets, 2-way; lines 0, 8, 16 map to set 0 *)
  let c = Cache.create tiny_level in
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  ignore (Cache.access c 16);
  (* line 0 is LRU and must have been evicted *)
  Alcotest.(check bool) "lru gone" false (Cache.mem c 0);
  Alcotest.(check bool) "recent kept" true (Cache.mem c 16)

let test_cache_lru_refresh () =
  let c = Cache.create tiny_level in
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  ignore (Cache.access c 0);
  (* refresh 0 *)
  ignore (Cache.access c 16);
  (* now 8 is LRU *)
  Alcotest.(check bool) "refreshed survives" true (Cache.mem c 0);
  Alcotest.(check bool) "stale evicted" false (Cache.mem c 8)

let probe_testable =
  Alcotest.testable
    (fun ppf p ->
      Format.pp_print_string ppf
        (match p with
        | Cache.Llc.Miss -> "Miss"
        | Cache.Llc.Hit -> "Hit"
        | Cache.Llc.Hit_pending -> "Hit_pending"))
    ( = )

let test_cache_insert_no_demand () =
  let c = Cache.Llc.create tiny_level in
  Alcotest.(check bool) "absent line prefetched" true (Cache.Llc.prefetch c 3);
  Alcotest.check probe_testable "prefetch-inserted line hits" Cache.Llc.Hit_pending
    (Cache.Llc.access_pending c 3);
  Alcotest.(check bool) "resident line not refilled" false
    (Cache.Llc.prefetch c 3)

let test_cache_clear () =
  let c = Cache.create tiny_level in
  ignore (Cache.access c 1);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.mem c 1)

(* The LLC's clear only starts an epoch.  Every line it held, demand-filled
   or prefetched and still pending, must then read as absent to [mem], to
   [prefetch] and to a demand probe, and over several clears.  [mem] must
   change nothing, in a live set or a stale one: no recency, no pending
   bit, no freshening that would make a later probe differ. *)
let test_llc_clear () =
  let module L = Cache.Llc in
  (* tiny_level: 8 sets of 2 ways; lines l and l + 8 share set l mod 8 *)
  let lines = List.init 16 Fun.id in
  let c = L.create tiny_level in
  let fill () =
    List.iter
      (fun l ->
        if l land 1 = 0 then ignore (L.access_pending c l)
        else ignore (L.prefetch c l))
      lines
  in
  let check_mem what want =
    List.iter
      (fun l ->
        Alcotest.(check bool) (Printf.sprintf "%s: mem %d" what l) want
          (L.mem c l))
      lines
  in
  for round = 1 to 3 do
    let what = Printf.sprintf "round %d" round in
    fill ();
    check_mem (what ^ ", filled") true;
    L.clear c;
    check_mem (what ^ ", cleared") false;
    check_mem (what ^ ", cleared, mem again") false;
    (* a pending line from before the clear is absent to a prefetch... *)
    Alcotest.(check bool) (what ^ ": prefetch of a cleared line") true
      (L.prefetch c 1);
    (* ...and to a demand probe, pending or not *)
    Alcotest.check probe_testable (what ^ ": cleared pending line")
      L.Miss (L.access_pending c 3);
    Alcotest.check probe_testable (what ^ ": cleared demand line")
      L.Miss (L.access_pending c 0);
    Alcotest.(check bool) (what ^ ": set-mate of a reprobed line") false
      (L.mem c 8);
    Alcotest.check probe_testable (what ^ ": prefetched after the clear")
      L.Hit_pending (L.access_pending c 1);
    L.clear c
  done;
  (* [mem] in a live set: no recency change, no pending bit consumed *)
  let c = L.create tiny_level in
  ignore (L.access_pending c 0);
  ignore (L.access_pending c 8);
  Alcotest.(check bool) "mem of the LRU line" true (L.mem c 0);
  ignore (L.access_pending c 16);
  Alcotest.(check bool) "mem did not refresh it" false (L.mem c 0);
  Alcotest.(check bool) "MRU line kept" true (L.mem c 8);
  ignore (L.prefetch c 5);
  Alcotest.(check bool) "mem of a pending line" true (L.mem c 5);
  Alcotest.check probe_testable "mem left it pending" L.Hit_pending
    (L.access_pending c 5)

(* [observe] as an option: the line to prefetch, if any *)
let observe p line =
  let l = Prefetcher.observe p line in
  if l < 0 then None else Some l

let test_prefetcher_adjacent () =
  let p = Prefetcher.create ~streams:4 in
  Alcotest.(check (option int)) "first access: nothing" None (observe p 10);
  Alcotest.(check (option int)) "adjacent: prefetch next" (Some 12)
    (observe p 11)

let test_prefetcher_stride () =
  let p = Prefetcher.create ~streams:4 in
  ignore (Prefetcher.observe p 100);
  Alcotest.(check (option int)) "stride not yet confirmed" None
    (observe p 104);
  Alcotest.(check (option int)) "confirmed stride 4" (Some 112)
    (observe p 108)

let test_prefetcher_same_line_quiet () =
  let p = Prefetcher.create ~streams:4 in
  ignore (Prefetcher.observe p 50);
  Alcotest.(check (option int)) "repeat access silent" None
    (observe p 50)

let test_prefetcher_multiple_streams () =
  let p = Prefetcher.create ~streams:4 in
  ignore (Prefetcher.observe p 1000);
  ignore (Prefetcher.observe p 5000);
  (* both streams stay tracked *)
  Alcotest.(check (option int)) "stream A advances" (Some 1002)
    (observe p 1001);
  Alcotest.(check (option int)) "stream B advances" (Some 5002)
    (observe p 5001)

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
(* Flat prefetcher vs the record-based one it replaced                  *)
(* ------------------------------------------------------------------ *)

(* The record-per-stream prefetcher, verbatim: the reference for the flat
   one's decisions, tie rules included (nearest stream: lowest index wins;
   new stream: highest-index invalid slot, else the LRU one). *)
module Record_prefetcher = struct
  type stream = {
    mutable last : int;
    mutable stride : int;
    mutable age : int;
    mutable valid : bool;
  }

  type t = { streams : stream array; mutable clock : int }

  let max_stream_delta = 64

  let create ~streams =
    {
      streams =
        Array.init streams (fun _ ->
            { last = 0; stride = 0; age = 0; valid = false });
      clock = 0;
    }

  let clear t =
    Array.iter (fun s -> s.valid <- false) t.streams;
    t.clock <- 0

  let find_stream t line =
    let n = Array.length t.streams in
    let best = ref (-1) in
    let best_delta = ref max_int in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get t.streams i in
      if s.valid then begin
        let d = abs (line - s.last) in
        if d <= max_stream_delta && d < !best_delta then begin
          best := i;
          best_delta := d
        end
      end
    done;
    !best

  let lru_slot t =
    let n = Array.length t.streams in
    let best = ref 0 in
    let best_age = ref max_int in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get t.streams i in
      if not s.valid then begin
        best := i;
        best_age := -1
      end
      else if s.age < !best_age then begin
        best := i;
        best_age := s.age
      end
    done;
    !best

  let observe t line =
    t.clock <- t.clock + 1;
    let i = find_stream t line in
    if i < 0 then begin
      let s = t.streams.(lru_slot t) in
      s.last <- line;
      s.stride <- 0;
      s.age <- t.clock;
      s.valid <- true;
      None
    end
    else begin
      let s = t.streams.(i) in
      s.age <- t.clock;
      let delta = line - s.last in
      if delta = 0 then None
      else begin
        s.last <- line;
        if delta = 1 then begin
          s.stride <- 1;
          Some (line + 1)
        end
        else if delta = s.stride then Some (line + s.stride)
        else begin
          s.stride <- delta;
          None
        end
      end
    end
end

(* A move of one of several interleaved cursors: a +-1 step, a run of a
   repeated stride, a repeat of the same line, a jump anywhere, a far jump
   back, or (rarely) a clear of both prefetchers. *)
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
      let flat = Prefetcher.create ~streams in
      let records = Record_prefetcher.create ~streams in
      let pos = Array.init cursors (fun c -> (1 lsl 20) + (c * 1000)) in
      let same line =
        let expected =
          match Record_prefetcher.observe records line with
          | Some l -> l
          | None -> Prefetcher.none
        in
        Prefetcher.observe flat line = expected
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
              Prefetcher.clear flat;
              Record_prefetcher.clear records;
              true)
        moves)

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
  ]
