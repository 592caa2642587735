(* Memsim walk microbench: the host time of the simulated cache walk itself,
   per simulated access, on four fixed access streams replayed straight into
   Memsim.Hierarchy (no engine, no storage layer):

   - seq:    sequential words, a column scan in runs of 512 words;
   - row80:  one word of every 80-byte row, a row-store field scan;
   - random: single words at random over 16 MB;
   - hash:   one hash probe per key, the bucket word of a 2 MB directory
             then a 3-word entry at a random place in a 16 MB heap.

   Every stream starts on a cold hierarchy (Hierarchy.reset).  The time is
   the best of [repeats] runs on the batched walk, taken round-robin across
   the four streams, so that one slow spell of a shared host spreads over
   every stream instead of covering all the repeats of one; one run on the
   reference per-word tracer (Memsim_ref, a test-only library) must give
   the same per-level counts.

   The cold cell times that reset itself, the clear a cold measured op
   starts with: host ns of one Hierarchy.reset right after the seq stream
   has filled every level, best of [resets] rounds.  Results go to
   BENCH_memsim_walk.json. *)

module H = Memsim.Hierarchy
module S = Memsim.Stats

let repeats = 9
let resets = 10
let base = 1 lsl 20
let mb = 1 lsl 20

(* Fixed pseudo-random word addresses, drawn before timing starts. *)
let random_words ~seed ~n ~span =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> 8 * Random.State.int st (span / 8))

(* Each stream is drawn when prepared and replayed as often as measured. *)
let seq () h =
  let run = 512 in
  for i = 0 to (16 * mb / 8 / run) - 1 do
    H.read_run h ~addr:(base + (i * run * 8)) ~width:8 ~count:run ~stride:8
  done

let row80 () h =
  let run = 1024 and rows = 32 * mb / 80 in
  for i = 0 to (rows / run) - 1 do
    H.read_run h ~addr:(base + (i * run * 80)) ~width:8 ~count:run ~stride:80
  done

let random () =
  let words = random_words ~seed:1 ~n:500_000 ~span:(16 * mb) in
  fun h -> Array.iter (fun a -> H.read h ~addr:(base + a) ~width:8) words

let hash () =
  let dir = random_words ~seed:2 ~n:250_000 ~span:(2 * mb) in
  let heap = random_words ~seed:3 ~n:250_000 ~span:(16 * mb) in
  let heap_base = base + (4 * mb) in
  fun h ->
    for i = 0 to Array.length dir - 1 do
      H.read h ~addr:(base + dir.(i)) ~width:8;
      H.read_run h
        ~addr:(heap_base + (heap.(i) / 24 * 24))
        ~width:8 ~count:3 ~stride:8
    done

let streams =
  [ ("seq", seq); ("row80", row80); ("random", random); ("hash", hash) ]

type row = {
  name : string;
  stats : S.t;
  ns : float; (* fast path, host ns per simulated access *)
  ref_ns : float; (* reference per-word tracer *)
  identical : bool;
}

(* Seconds since [t0] on the monotonic ns clock: the reset takes 1-4 us, so
   a clock that steps in whole microseconds cannot time it. *)
let since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let timed h stream =
  H.reset h;
  let t0 = Monotonic_clock.now () in
  stream h;
  let t = since t0 in
  (t, H.snapshot h)

(* Round [r] times every stream once, in order, each on its own hierarchy. *)
let measure streams =
  let prepared =
    List.map (fun (name, prepare) -> (name, prepare (), H.create ())) streams
  in
  let best = Hashtbl.create 4 and stats = Hashtbl.create 4 in
  for _ = 1 to repeats do
    List.iter
      (fun (name, stream, fast) ->
        let t, st = timed fast stream in
        Hashtbl.replace best name
          (Float.min t (Option.value (Hashtbl.find_opt best name) ~default:t));
        Hashtbl.replace stats name st)
      prepared
  done;
  List.map
    (fun (name, stream, _) ->
      let stats = Hashtbl.find stats name in
      let ref_t, ref_stats = timed (Memsim_ref.hierarchy ()) stream in
      let per_access t = 1e9 *. t /. float_of_int stats.S.accesses in
      {
        name;
        stats;
        ns = per_access (Hashtbl.find best name);
        ref_ns = per_access ref_t;
        identical = stats = ref_stats;
      })
    prepared

let reset_ns () =
  let h = H.create () and fill = seq () in
  let best = ref infinity in
  for _ = 1 to resets do
    fill h;
    let t0 = Monotonic_clock.now () in
    H.reset h;
    best := Float.min !best (since t0)
  done;
  1e9 *. !best

let run () =
  Common.header "Memsim walk — host ns per simulated access";
  Common.note
    "four fixed streams, cold hierarchy, best of %d round-robin; Nehalem \
     geometry"
    repeats;
  let rows = measure streams in
  let cold = reset_ns () in
  Printf.printf "  %-7s %9s %8s %8s %9s %9s %9s %9s %9s %9s %9s %5s\n" "stream"
    "accesses" "ns/acc" "ref ns" "L1 miss" "L2 miss" "LLC acc" "LLC seq"
    "LLC rand" "TLB miss" "prefetch" "same";
  List.iter
    (fun r ->
      let s = r.stats in
      Printf.printf "  %-7s %9d %8.1f %8.1f %9d %9d %9d %9d %9d %9d %9d %5b\n"
        r.name s.S.accesses r.ns r.ref_ns s.S.l1_misses s.S.l2_misses
        s.S.llc_accesses s.S.llc_seq_misses s.S.llc_rand_misses s.S.tlb_misses
        s.S.prefetches r.identical)
    rows;
  Printf.printf "  cold: Hierarchy.reset after the seq stream, best of %d: %.0f ns\n"
    resets cold;
  let pt = Common.pt ~bench:"memsim_walk" in
  Common.write_bench "BENCH_memsim_walk.json"
    (List.concat_map
       (fun r ->
         let m k = Printf.sprintf "stream.%s.%s" r.name k in
         let count k v = pt ~metric:(m k) (float_of_int v) in
         let s = r.stats in
         [
           pt ~metric:(m "ns_per_access") ~unit_:"ns" r.ns;
           pt ~metric:(m "ref_ns_per_access") ~unit_:"ns" r.ref_ns;
           count "accesses" s.S.accesses;
           count "l1_misses" s.S.l1_misses;
           count "l2_misses" s.S.l2_misses;
           count "llc_accesses" s.S.llc_accesses;
           count "llc_seq_misses" s.S.llc_seq_misses;
           count "llc_rand_misses" s.S.llc_rand_misses;
           count "tlb_misses" s.S.tlb_misses;
           count "prefetches" s.S.prefetches;
           pt ~metric:(m "counts_identical") ~unit_:"bool"
             (if r.identical then 1. else 0.);
         ])
       rows
    @ [ pt ~metric:"cold.reset_ns" ~unit_:"ns" cold ]);
  if List.exists (fun r -> not r.identical) rows then
    failwith "memsim_walk: fast and reference walks counted differently"
