(* What the three workloads share: their command line, metric records,
   answer digests, the CH parameter pools, set-up timing, and the process
   counters (peak RSS, GC). *)

module V = Storage.Value
module Rng = Mrdb_util.Rng

type args = {
  seed : int;
  ops : int;  (** timed ops in this run; 0 to only set up *)
  trace : bool;
}

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* [value] is scaled to the reference host's speed (see {!Calib}) when the
   metric is a time; [raw] is the value as measured on this host. *)
type metric = {
  name : string;
  value : float;
  raw : float;
  unit_ : string;
  n : int;
}

let metric ?(n = 1) ?raw name unit_ value =
  { name; value; raw = Option.value raw ~default:value; unit_; n }

(* What one run reports: end-to-end metrics, per-layer metrics (traced
   runs only), the counters that must repeat exactly for a seed, and the
   ops that failed with the reason for each. *)
type report = {
  attempted : int;
  failures : string list;
  e2e : metric list;
  layers : metric list;
  counts : (string * float) list;
}

let json_of_report (r : report) =
  let m (x : metric) =
    ( x.name,
      Obs.Json.Obj
        [
          ("value", Obs.Json.Num x.value);
          ("raw", Obs.Json.Num x.raw);
          ("unit", Obs.Json.Str x.unit_);
          ("n", Obs.Json.Num (float_of_int x.n));
        ] )
  in
  Obs.Json.Obj
    [
      ("attempted", Obs.Json.Num (float_of_int r.attempted));
      ("failures", Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) r.failures));
      ("e2e", Obs.Json.Obj (List.map m r.e2e));
      ("layers", Obs.Json.Obj (List.map m r.layers));
      ( "counts",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Num v)) r.counts) );
    ]

(* ------------------------------------------------------------------ *)
(* Answers                                                            *)
(* ------------------------------------------------------------------ *)

(* Digest of a result as a multiset of rows: engines may emit the groups
   of an unordered GROUP BY in different orders. *)
let digest (r : Engines.Runtime.result) =
  let cell = function
    | V.Null -> "N"
    | V.VInt i -> "i" ^ string_of_int i
    | V.VFloat f -> Printf.sprintf "f%h" f
    | V.VBool b -> if b then "T" else "F"
    | V.VDate d -> "d" ^ string_of_int d
    | V.VStr s -> "s" ^ String.escaped s
  in
  let rows =
    List.map
      (fun row -> String.concat "|" (Array.to_list (Array.map cell row)))
      r.Engines.Runtime.rows
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (String.concat "|" (Array.to_list r.Engines.Runtime.columns)
          :: List.sort String.compare rows)))

(* ------------------------------------------------------------------ *)
(* CH query parameters                                                *)
(* ------------------------------------------------------------------ *)

(* The parameters a seed may move, per CH query: date bounds (with the
   width of a date range kept) and CH8's price cap, all by one offset of at
   most 20 in a 3650-day or 10000-unit domain, so every value keeps the
   query's reference selectivity within about one percent. *)
let shifted = function
  | "CH1" | "CH3" | "CH8" | "CH10" -> [ 0 ]
  | "CH4" | "CH6" -> [ 0; 1 ]
  | _ -> []

let shift_params rng name (params : V.t array) =
  let d = Rng.int_in rng (-20) 20 in
  let p = Array.copy params in
  List.iter
    (fun i ->
      p.(i) <-
        (match p.(i) with
        | V.VInt v -> V.VInt (v + d)
        | V.VDate v -> V.VDate (v + d)
        | v -> v))
    (shifted name);
  p

(* A pool of [size] parameter vectors per query, drawn from the seed. *)
let param_pool rng ~size (queries : Workloads.Workload.query list) =
  Array.of_list
    (List.map
       (fun (q : Workloads.Workload.query) ->
         Array.init size (fun _ -> shift_params rng q.name q.params))
       queries)

(* ------------------------------------------------------------------ *)
(* Set-up and process counters                                        *)
(* ------------------------------------------------------------------ *)

(* A set-up's time, raw and scaled by the host speed measured around it. *)
type setup_time = { raw_s : float; factor : float }

(* Run the set-up once and time it: everything a process does between its
   start and its first timed op, apart from drawing the benchmark's own
   inputs and making the calibration kernel.  A full major GC ends it, so
   the timed phase does not pay for set-up garbage; the calibration samples
   of the timed phase start after it. *)
let set_up k setup =
  let r, raw_s, factor = Calib.time_scaled k setup in
  Gc.compact ();
  Calib.reset k;
  (r, { raw_s; factor })

let setup_metric t = metric "setup_s" "s" ~raw:t.raw_s (t.raw_s *. t.factor)

(* The report of a process run with no ops: its set-up time alone. *)
let setup_only t =
  {
    attempted = 0;
    failures = [];
    e2e = [ setup_metric t ];
    layers = [];
    counts = [];
  }

(* The calibration kernel's median time over the timed phase, as measured:
   the host speed the run's times were scaled from. *)
let kernel_metric k =
  let t = Calib.samples k in
  metric "host.kernel_us" "us" ~n:(Array.length t) (1e6 *. Trace.median t)

(* The medians of per-op latencies grouped by op type, in ms. *)
let type_medians ~types ~type_of (lat : float array) =
  Array.init types (fun t ->
      let xs = ref [] in
      Array.iteri (fun i l -> if type_of i = t then xs := l :: !xs) lat;
      1e3 *. Trace.median (Array.of_list !xs))

(* A time metric in [unit_] ([scale] units per second) from a time [raw_s]
   measured under the host-speed [factor]. *)
let time_metric ?n ~scale name unit_ ~factor raw_s =
  metric ?n name unit_ ~raw:(scale *. raw_s) (scale *. raw_s *. factor)

(* The end-to-end metrics every workload reports from its timed ops: per op,
   [busy] is the time the op kept the program busy, [lat] the latency its
   latency metrics are over, and [factors] its host-speed factor.  The
   latency metrics are [center] (the geometric mean of each op type's median
   when [types] is given, else the median) and the [tail] percentile. *)
let op_metrics ?types ~tail ~busy ~lat ~factors () =
  let n = Array.length lat in
  let scaled xs = Array.mapi (fun i x -> x *. factors.(i)) xs in
  let center xs =
    match types with
    | None -> 1e3 *. Trace.median xs
    | Some (types, type_of) -> Trace.geomean (type_medians ~types ~type_of xs)
  in
  let latency name f =
    metric name "ms" ~n ~raw:(f lat) (f (scaled lat))
  in
  let rate xs = float_of_int n /. Trace.sum xs in
  [
    metric "ops_per_s" "op/s" ~n ~raw:(rate busy) (rate (scaled busy));
    latency "op_geomean_ms" center;
    latency "tail_ms" (fun xs -> 1e3 *. Trace.percentile xs tail);
  ]

(* VmHWM of this process in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* Per-op GC work over a phase that started at [m0]. *)
let gc_layers m0 ~ops =
  let m1 = gc_mark () in
  let per x = x /. float_of_int (max 1 ops) in
  [
    metric "gc.minor_words_per_op" "words/op" ~n:ops
      (per (m1.minor_words -. m0.minor_words));
    metric "gc.major_gcs_per_op" "1/op" ~n:ops
      (per (float_of_int (m1.major_collections - m0.major_collections)));
  ]

(* Stored bytes of every part of every table over their rows. *)
let bytes_per_row cat =
  let bytes = ref 0 and rows = ref 0 in
  List.iter
    (fun t ->
      let rel = Storage.Catalog.find cat t in
      for p = 0 to Storage.Relation.n_parts rel - 1 do
        bytes :=
          !bytes + Storage.Buffer.size (Storage.Relation.part_buffer rel p)
      done;
      rows := !rows + Storage.Relation.nrows rel)
    Workloads.Ch.tables;
  float_of_int !bytes /. float_of_int (max 1 !rows)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let describe_exn e =
  match Mrdb_util.Errors.to_diagnostic e with
  | Some m -> m
  | None -> Printexc.to_string e
