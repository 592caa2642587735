(* Clock, layer spans and summary statistics for the benchmark.

   A span records one call the benchmark makes into a layer: its kind, the
   op it belongs to, its parent span, and its start and end on the
   monotonic clock.  Spans live in arrays reserved before the timed phase,
   outside the OCaml heap, and are written out only when the run ends. *)

open Bigarray

let now () = Monotonic_clock.now ()

let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* ------------------------------------------------------------------ *)
(* Span kinds                                                         *)
(* ------------------------------------------------------------------ *)

let kind_names =
  [|
    "op";
    "relalg.parse";
    "relalg.plan";
    "engines.run";
    "memsim.run_measured";
    "storage.set_layout";
    "wire.ping";
    "txn.begin";
    "txn.get";
    "txn.set";
    "txn.insert";
    "txn.commit";
  |]

let k_op = 0
let k_parse = 1
let k_plan = 2
let k_exec = 3
let k_traced = 4
let k_layout = 5
let k_ping = 6
let k_begin = 7
let k_get = 8
let k_set = 9
let k_insert = 10
let k_commit = 11

(* ------------------------------------------------------------------ *)
(* Recorder                                                           *)
(* ------------------------------------------------------------------ *)

let i32 n = Array1.create int32 c_layout n
let i64 n = Array1.create int64 c_layout n

let enabled = ref false
let kinds = ref (i32 0)
let ops = ref (i32 0)
let parents = ref (i32 0)
let starts = ref (i64 0)
let ends = ref (i64 0)
let count = ref 0
let dropped = ref 0
let cur_op = ref (-1)
let cur_parent = ref (-1)

(* Make room for [capacity] spans; recording starts at {!start}.  Spans
   past the capacity are counted in [dropped] and not recorded. *)
let reserve ~capacity =
  kinds := i32 capacity;
  ops := i32 capacity;
  parents := i32 capacity;
  starts := i64 capacity;
  ends := i64 capacity

let start () = enabled := Array1.dim !kinds > 0
let stop () = enabled := false

let span kind f =
  if not !enabled then f ()
  else
    let id = !count in
    if id >= Array1.dim !kinds then begin
      incr dropped;
      f ()
    end
    else begin
      count := id + 1;
      Array1.unsafe_set !kinds id (Int32.of_int kind);
      Array1.unsafe_set !ops id (Int32.of_int !cur_op);
      Array1.unsafe_set !parents id (Int32.of_int !cur_parent);
      let parent = !cur_parent in
      cur_parent := id;
      Array1.unsafe_set !starts id (now ());
      match f () with
      | r ->
          Array1.unsafe_set !ends id (now ());
          cur_parent := parent;
          r
      | exception e ->
          Array1.unsafe_set !ends id (now ());
          cur_parent := parent;
          raise e
    end

(* The root span of op [i]: every span opened inside shares its op id. *)
let op i f =
  cur_op := i;
  match span k_op f with
  | r ->
      cur_op := -1;
      r
  | exception e ->
      cur_op := -1;
      raise e

let duration id =
  Int64.to_float (Int64.sub (Array1.get !ends id) (Array1.get !starts id))
  *. 1e-9

let kind_of id = Int32.to_int (Array1.get !kinds id)
let op_of id = Int32.to_int (Array1.get !ops id)
let parent_of id = Int32.to_int (Array1.get !parents id)

(* Durations in seconds of the recorded spans of [kind]; with [keep], only
   those inside an op that satisfies it. *)
let durations ?keep kind =
  let acc = ref [] in
  for id = !count - 1 downto 0 do
    if
      kind_of id = kind
      &&
      match keep with
      | None -> true
      | Some f -> op_of id >= 0 && f (op_of id)
    then acc := duration id :: !acc
  done;
  Array.of_list !acc

(* Share of the ops' time that no layer span covers: each op's duration
   minus the time its child spans take, summed, over the summed op
   durations.  Children of one op run one after another, so their union is
   their sum. *)
let uncovered_share () =
  let total = ref 0.0 and covered = ref 0.0 in
  for id = 0 to !count - 1 do
    if kind_of id = k_op then total := !total +. duration id
    else
      let p = parent_of id in
      if p >= 0 && kind_of p = k_op then covered := !covered +. duration id
  done;
  if !total > 0.0 then (!total -. !covered) /. !total else 0.0

(* One line per span: id, op, parent, kind, start and end in ns from the
   first span. *)
let write_tsv path =
  let oc = open_out path in
  output_string oc "id\top\tparent\tspan\tstart_ns\tend_ns\n";
  let base = if !count > 0 then Array1.get !starts 0 else 0L in
  for id = 0 to !count - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" id (op_of id)
      (parent_of id)
      kind_names.(kind_of id)
      (Int64.sub (Array1.get !starts id) base)
      (Int64.sub (Array1.get !ends id) base)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; 0 for an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else
    let a = sorted xs in
    let h = float_of_int (n - 1) *. p /. 100.0 in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

let sum xs = Array.fold_left ( +. ) 0.0 xs
