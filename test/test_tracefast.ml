(* Run-batched tracing identity: Hierarchy.read_run/write_run must leave
   counters, cycles and all cache state byte-identical to the per-word
   touch loop they replace — checked on random access-run sequences against
   the reference tracer ([Memsim_ref]), and end-to-end on every engine under
   NSM/DSM/PDSM on both. *)

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
  let slow = Memsim_ref.hierarchy ?params () in
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
      let slow = Memsim_ref.hierarchy () in
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
   hierarchy, on both paths and both geometries, after each of 1-5 resets:
   a clear that left a line resident or pending, or lost the prefetcher's
   slot-allocation order, shows here.  A segment between resets mixes
   random runs with a sweep that touches every line of an LLC-sized region
   (so it fills every LLC set) and interleaved sequential streams that
   each leave their next line prefetched and pending.  Segments are drawn
   from a small pool, so a segment after a reset often replays the lines
   that were resident or pending before it. *)
type traffic =
  | Runs of op list
  | Sweep (* one word per line of an LLC-sized region *)
  | Streams of int * int (* [k] streams of [len] lines, interleaved *)

let traffic_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun ops -> Runs ops) (list_size (int_range 1 20) op_gen));
        (1, return Sweep);
        (2, map2 (fun k len -> Streams (k, len)) (int_range 1 16) (int_range 1 6));
      ])

let drive (params : Memsim.Params.t) h = function
  | Runs ops -> List.iter (apply h) ops
  | Sweep ->
      let line = Memsim.Params.line_size params in
      Hierarchy.read_run h ~addr:262_144 ~width:8
        ~count:(params.levels.(2).capacity / line)
        ~stride:line
  | Streams (k, len) ->
      let line = Memsim.Params.line_size params in
      for i = 0 to len - 1 do
        for s = 0 to k - 1 do
          Hierarchy.read h ~addr:(262_144 + (s * 65_536) + (i * line)) ~width:8
        done
      done

let qcheck_reset_is_fresh =
  let segment = QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) traffic_gen in
  let gen =
    QCheck.Gen.(
      let* pool = list_size (int_range 1 3) segment in
      let* picks = list_size (int_range 2 6) (int_bound (List.length pool - 1)) in
      return (List.map (List.nth pool) picks))
  in
  QCheck.Test.make ~count:30
    ~name:"a stream after reset counts as on a fresh hierarchy"
    (QCheck.make gen)
    (fun segments ->
      List.for_all
        (fun (params, reference) ->
          let create () =
            if reference then Memsim_ref.hierarchy ~params ()
            else Hierarchy.create ~params ()
          in
          let run h segment = List.iter (drive params h) segment in
          let used = create () in
          run used (List.hd segments);
          List.for_all
            (fun segment ->
              Hierarchy.reset used;
              run used segment;
              let fresh = create () in
              run fresh segment;
              stats_equal (Hierarchy.snapshot used) (Hierarchy.snapshot fresh))
            (List.tl segments))
        [
          (Memsim.Params.nehalem, false);
          (Memsim.Params.nehalem, true);
          (tiny_params, false);
          (tiny_params, true);
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
let measure_with hier ~n ~layout ~sel engine =
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
            measure_with (Hierarchy.create ()) ~n:3_000 ~layout ~sel engine
          in
          let r_slow, s_slow =
            measure_with (Memsim_ref.hierarchy ()) ~n:3_000 ~layout ~sel engine
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
    measure_with (Hierarchy.create ()) ~n:20_000 ~layout ~sel:0.1 Engine.Jit
  in
  let r_slow, s_slow =
    measure_with (Memsim_ref.hierarchy ()) ~n:20_000 ~layout ~sel:0.1 Engine.Jit
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

(* ------------------------------------------------------------------ *)
(* Buffer run accessors vs their per-element loops                     *)
(* ------------------------------------------------------------------ *)

(* Each run accessor must trace exactly what the loop of its single-element
   accessor traces, and read or write the same values.  The identity tests
   above drive both hierarchies through the same run calls, so only this
   property checks a run accessor's width, stride and count against the
   loop it stands for. *)

module Buffer = Storage.Buffer

type accessor =
  | Touch
  | Touch_write
  | Read_int
  | Write_int
  | Read_uint
  | Read_value
  | Write_value

type run_case = {
  acc : accessor;
  off : int;
  count : int;
  stride : int;
  width : int; (* Touch* and Read_uint only *)
  ty : V.ty; (* *_value only *)
  seed : int; (* buffer contents and written values *)
}

let accessor_name = function
  | Touch -> "touch_run"
  | Touch_write -> "touch_write_run"
  | Read_int -> "read_int_run"
  | Write_int -> "write_int_run"
  | Read_uint -> "read_uint_run"
  | Read_value -> "read_value_run"
  | Write_value -> "write_value_run"

let print_run_case c =
  Format.asprintf "%s off=%d count=%d stride=%d width=%d ty=%a seed=%d"
    (accessor_name c.acc) c.off c.count c.stride c.width V.pp_ty c.ty c.seed

let buffer_size = 16_384

let run_case_gen =
  QCheck.Gen.(
    let* acc =
      oneofl
        [
          Touch; Touch_write; Read_int; Write_int; Read_uint; Read_value;
          Write_value;
        ]
    in
    let* width =
      match acc with
      | Read_uint -> oneofl [ 1; 2; 4; 8 ]
      | _ -> int_range 1 96
    in
    let* n = int_range 1 24 in
    let* ty = oneofl [ V.Int; V.Float; V.Bool; V.Date; V.Varchar n ] in
    let* count = int_range 0 64 in
    let* stride = int_range (-120) 120 in
    let* start = int_range 0 255 in
    let* seed = int_range 0 1_000_000 in
    (* every element stays inside the buffer, whatever the stride's sign *)
    let off = 64 + start + max 0 (-stride * (count - 1)) in
    return { acc; off; count; stride; width; ty; seed })

(* A traced buffer at a fixed address with seeded contents, on a fresh
   hierarchy. *)
let seeded_buffer seed =
  let h = Hierarchy.create () in
  let b = Buffer.create (Storage.Arena.create ()) ~hier:h buffer_size in
  let st = Random.State.make [| seed |] in
  for i = 0 to (buffer_size / 8) - 1 do
    Buffer.untraced_write_int b (i * 8)
      ((Random.State.bits st lsl 34) lxor Random.State.bits st)
  done;
  (h, b)

let random_value st (ty : V.ty) =
  match ty with
  | Int -> V.VInt (Random.State.bits st - (1 lsl 29))
  | Date -> V.VDate (Random.State.int st 100_000)
  | Float -> V.VFloat (Random.State.float st 2e6 -. 1e6)
  | Bool -> V.VBool (Random.State.bool st)
  | Varchar n ->
      V.VStr
        (String.init
           (Random.State.int st (n + 4))
           (fun _ -> Char.chr (97 + Random.State.int st 26)))

(* Runs [c] through the run accessor on one buffer and through the loop of
   its single-element accessor on another, and tells whether both read the
   same values; writes compare through the buffers' bytes.  [compare], not
   [=], so that NaNs read from random bytes equal themselves. *)
let run_both c =
  let h_run, b_run = seeded_buffer c.seed in
  let h_loop, b_loop = seeded_buffer c.seed in
  let st = Random.State.make [| c.seed; 1 |] in
  let n = c.count and off = c.off and stride = c.stride in
  let at i = off + (i * stride) in
  let loop f = Array.init n (fun i -> f (at i)) in
  let same a b = compare a b = 0 in
  let same_values =
    match c.acc with
    | Touch ->
        Buffer.touch_run b_run off ~width:c.width ~count:n ~stride;
        ignore (loop (fun o -> Buffer.touch b_loop o ~width:c.width));
        true
    | Touch_write ->
        Buffer.touch_write_run b_run off ~width:c.width ~count:n ~stride;
        ignore (loop (fun o -> Buffer.touch_write b_loop o ~width:c.width));
        true
    | Read_int ->
        let dst = Array.make n 0 in
        Buffer.read_int_run b_run off ~stride ~count:n dst;
        same dst (loop (Buffer.read_int b_loop))
    | Write_int ->
        let src = Array.init n (fun _ -> Random.State.bits st) in
        Buffer.write_int_run b_run off ~stride ~count:n src;
        Array.iteri (fun i v -> Buffer.write_int b_loop (at i) v) src;
        true
    | Read_uint ->
        let dst = Array.make n 0 in
        Buffer.read_uint_run b_run off ~width:c.width ~stride ~count:n dst;
        same dst (loop (fun o -> Buffer.read_uint b_loop o ~width:c.width))
    | Read_value ->
        let dst = Array.make n V.Null in
        Buffer.read_value_run b_run off ~stride ~ty:c.ty ~count:n dst;
        same dst
          (loop (fun o -> Buffer.read_value b_loop o ~ty:c.ty ~nullable:false))
    | Write_value ->
        let src = Array.init n (fun _ -> random_value st c.ty) in
        Buffer.write_value_run b_run off ~stride ~ty:c.ty ~count:n src;
        Array.iteri
          (fun i v ->
            Buffer.write_value b_loop (at i) ~ty:c.ty ~nullable:false v)
          src;
        true
  in
  same_values
  && Bytes.equal (Buffer.unsafe_bytes b_run) (Buffer.unsafe_bytes b_loop)
  && stats_equal (Hierarchy.snapshot h_run) (Hierarchy.snapshot h_loop)

let qcheck_buffer_runs =
  QCheck.Test.make ~count:1000
    ~name:"Buffer run accessors trace and move what their loops do"
    (QCheck.make ~print:print_run_case run_case_gen)
    run_both

let suite =
  QCheck_alcotest.to_alcotest qcheck_run_identity
  :: QCheck_alcotest.to_alcotest qcheck_run_identity_interleaved
  :: Alcotest.test_case "fig3 point traced fast=slow" `Quick test_fig3_point
  :: Alcotest.test_case "reslice window" `Quick test_reslice
  :: Helpers.across_engines "engine identity" test_engine_identity
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_run_identity_wide;
        qcheck_run_identity_tiny;
        qcheck_reset_is_fresh;
        qcheck_buffer_runs;
      ]
