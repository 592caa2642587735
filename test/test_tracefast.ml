(* Run-batched tracing identity: Hierarchy.read_run/write_run must leave
   counters, cycles and all cache state byte-identical to the per-word
   touch loop they replace — checked on random access-run sequences against
   the slow path, and end-to-end on every engine under NSM/DSM/PDSM with the
   fast path toggled. *)

module Stats = Memsim.Stats
module Hierarchy = Memsim.Hierarchy
module V = Storage.Value
module Engine = Engines.Engine

let stats_equal (a : Stats.t) (b : Stats.t) = a = b
let stats_testable = Alcotest.testable Stats.pp stats_equal

(* ------------------------------------------------------------------ *)
(* Property: random mixed run sequences, fast path vs per-word loop    *)
(* ------------------------------------------------------------------ *)

type op = { write : bool; addr : int; width : int; count : int; stride : int }

let op_gen =
  QCheck.Gen.(
    let* write = bool in
    (* keep addr + i*stride non-negative for any generated combination *)
    let* addr = int_range 262_144 1_048_576 in
    let* width = int_range 1 96 in
    let* count = int_range 0 256 in
    let* stride = int_range (-192) 192 in
    return { write; addr; width; count; stride })

let apply h { write; addr; width; count; stride } =
  if write then Hierarchy.write_run h ~addr ~width ~count ~stride
  else Hierarchy.read_run h ~addr ~width ~count ~stride

let same_stats ?params ops =
  let fast = Hierarchy.create ?params () in
  let slow = Hierarchy.create ?params () in
  Hierarchy.set_fastpath slow false;
  List.iter (apply fast) ops;
  List.iter (apply slow) ops;
  stats_equal (Hierarchy.snapshot fast) (Hierarchy.snapshot slow)

let qcheck_run_identity =
  let gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) op_gen in
  QCheck.Test.make ~count:60
    ~name:"read_run/write_run counters identical to per-word loop"
    (QCheck.make gen) same_stats

(* The two paths must also leave identical *cache state*, not just equal
   counters: interleave run calls with plain reads and compare again. *)
let qcheck_run_identity_interleaved =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair op_gen (int_range 262_144 1_048_576)))
  in
  QCheck.Test.make ~count:40
    ~name:"runs interleaved with plain touches stay identical"
    (QCheck.make gen)
    (fun ops ->
      let fast = Hierarchy.create () in
      let slow = Hierarchy.create () in
      Hierarchy.set_fastpath slow false;
      let drive h =
        List.iter
          (fun (op, a) ->
            apply h op;
            Hierarchy.read h ~addr:a ~width:8)
          ops
      in
      drive fast;
      drive slow;
      stats_equal (Hierarchy.snapshot fast) (Hierarchy.snapshot slow))

(* The properties above stay inside 1 MiB, so the default 8 MiB L3 never
   evicts there.  These two make every level evict, prefetched lines
   included: one spreads runs over 64 MiB in 128 regions that alias onto
   the same L3 sets (512 KiB apart, the L3's set period), the other shrinks
   every level to a handful of sets, none of them a power-of-two count. *)
let wide_op_gen =
  QCheck.Gen.(
    let* write = bool in
    let* region = int_range 0 127 in
    let* off = int_range 0 16_383 in
    let addr = (8 lsl 20) + (region * 524_288) + off in
    let* width = int_range 1 96 in
    let* count, stride =
      frequency
        [
          (3, pair (int_range 0 256) (int_range (-192) 192));
          (1, pair (int_range 0 8) (oneofl [ 524_288; -524_288; 4096 ]));
        ]
    in
    return { write; addr; width; count; stride })

let tiny_params : Memsim.Params.t =
  {
    levels =
      [|
        { name = "L1"; capacity = 3 * 2 * 8; block = 8; latency = 1; assoc = 2 };
        { name = "L2"; capacity = 5 * 2 * 64; block = 64; latency = 3; assoc = 2 };
        { name = "L3"; capacity = 7 * 4 * 64; block = 64; latency = 8; assoc = 4 };
      |];
    tlb =
      { name = "TLB"; capacity = 3 * 2 * 4096; block = 4096; latency = 1; assoc = 2 };
    memory_latency = 12;
    prefetch_streams = 3;
  }

let qcheck_run_identity_wide =
  let gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) wide_op_gen in
  QCheck.Test.make ~count:60
    ~name:"fast = reference over 64 MiB of aliasing L3 sets"
    (QCheck.make gen) same_stats

let qcheck_run_identity_tiny =
  let gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) op_gen in
  QCheck.Test.make ~count:100
    ~name:"fast = reference on tiny non-power-of-two sets"
    (QCheck.make gen)
    (same_stats ~params:tiny_params)

(* A stream run after [reset] counts exactly what it counts on a fresh
   hierarchy, on both paths and both geometries: a clear that left a line
   resident or pending, or lost the prefetcher's slot-allocation order,
   shows here. *)
let qcheck_reset_is_fresh =
  let ops = QCheck.Gen.(list_size (int_range 1 30) op_gen) in
  QCheck.Test.make ~count:40
    ~name:"a stream after reset counts as on a fresh hierarchy"
    (QCheck.make QCheck.Gen.(pair ops ops))
    (fun (before, after) ->
      List.for_all
        (fun (params, fastpath) ->
          let create () =
            let h = Hierarchy.create ~params () in
            Hierarchy.set_fastpath h fastpath;
            h
          in
          let used = create () in
          List.iter (apply used) before;
          Hierarchy.reset used;
          List.iter (apply used) after;
          let fresh = create () in
          List.iter (apply fresh) after;
          stats_equal (Hierarchy.snapshot used) (Hierarchy.snapshot fresh))
        [
          (Memsim.Params.nehalem, true);
          (Memsim.Params.nehalem, false);
          (tiny_params, true);
          (tiny_params, false);
        ])

(* ------------------------------------------------------------------ *)
(* End-to-end: every engine, every storage model, fast vs slow         *)
(* ------------------------------------------------------------------ *)

let layouts () =
  [
    ("nsm", Storage.Layout.row Workloads.Microbench.schema);
    ("dsm", Storage.Layout.column Workloads.Microbench.schema);
    ("pdsm", Workloads.Microbench.pdsm_layout);
  ]

(* Each measurement builds its own hierarchy and catalog: a measured run
   allocates intermediates (selection vectors, materialization buffers) from
   the catalog's arena, so repeated runs on one catalog see different
   absolute addresses — and thus different cache *set* indices — making even
   two identical runs drift by a conflict miss.  A fresh deterministic build
   per run puts both paths on byte-identical address streams. *)
let measure_with ~fastpath ~n ~layout ~sel engine =
  let hier = Hierarchy.create () in
  Hierarchy.set_fastpath hier fastpath;
  let cat = Workloads.Microbench.build ~hier ~n () in
  Storage.Catalog.set_layout cat "R" layout;
  let plan = Workloads.Microbench.plan cat ~sel in
  let params = Workloads.Microbench.params ~sel in
  Engine.run_measured engine cat plan ~params

let test_engine_identity engine () =
  List.iter
    (fun (lname, layout) ->
      List.iter
        (fun sel ->
          let r_fast, s_fast =
            measure_with ~fastpath:true ~n:3_000 ~layout ~sel engine
          in
          let r_slow, s_slow =
            measure_with ~fastpath:false ~n:3_000 ~layout ~sel engine
          in
          Alcotest.(check (list Helpers.row_testable))
            (Printf.sprintf "%s/%s sel=%g rows" lname (Engine.name engine) sel)
            r_slow.Engines.Runtime.rows r_fast.Engines.Runtime.rows;
          Alcotest.check stats_testable
            (Printf.sprintf "%s/%s sel=%g stats" lname (Engine.name engine) sel)
            s_slow s_fast)
        [ 0.01; 0.5 ])
    (layouts ())

(* One traced fig3 point end-to-end (select + aggregate, JiT on PDSM at the
   fig3 scale shape), fast vs slow. *)
let test_fig3_point () =
  let layout = Workloads.Microbench.pdsm_layout in
  let r_fast, s_fast =
    measure_with ~fastpath:true ~n:20_000 ~layout ~sel:0.1 Engine.Jit
  in
  let r_slow, s_slow =
    measure_with ~fastpath:false ~n:20_000 ~layout ~sel:0.1 Engine.Jit
  in
  Helpers.check_rows "fig3 point rows" r_slow.Engines.Runtime.rows
    r_fast.Engines.Runtime.rows;
  Alcotest.check stats_testable "fig3 point stats" s_slow s_fast

(* ------------------------------------------------------------------ *)
(* Relation.reslice window rules                                       *)
(* ------------------------------------------------------------------ *)

let test_reslice () =
  let cat = Helpers.small_catalog ~n:100 () in
  let rel = Storage.Catalog.find cat "t" in
  Alcotest.check_raises "reslice of a non-view rejected"
    (Invalid_argument "Relation.reslice: not a view") (fun () ->
      Storage.Relation.reslice rel ~lo:0 ~len:10);
  let view = Storage.Relation.with_hier rel (Storage.Relation.hier rel) in
  Storage.Relation.reslice view ~lo:40 ~len:10;
  Alcotest.(check int) "window length" 10 (Storage.Relation.nrows view);
  Alcotest.check Helpers.value_testable "window contents"
    (Storage.Relation.get rel 43 0)
    (Storage.Relation.get view 3 0);
  Storage.Relation.reslice view ~lo:90 ~len:10;
  Alcotest.check Helpers.value_testable "window moved"
    (Storage.Relation.get rel 95 0)
    (Storage.Relation.get view 5 0);
  Alcotest.check_raises "window beyond parent rejected"
    (Invalid_argument
       "Relation.reslice(t): rows [95, 105) out of bounds (parent window \
        holds 100 rows)") (fun () ->
      Storage.Relation.reslice view ~lo:95 ~len:10)

let suite =
  QCheck_alcotest.to_alcotest qcheck_run_identity
  :: QCheck_alcotest.to_alcotest qcheck_run_identity_interleaved
  :: Alcotest.test_case "fig3 point traced fast=slow" `Quick test_fig3_point
  :: Alcotest.test_case "reslice window" `Quick test_reslice
  :: Helpers.across_engines "engine identity" test_engine_identity
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_run_identity_wide; qcheck_run_identity_tiny; qcheck_reset_is_fresh ]
