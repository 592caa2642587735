(* Host speed calibration.

   The benchmark runs on a shared host that flips between a fast and a
   slow speed every few seconds, and sometimes stays slow for minutes: the
   same set-up took 0.11 s in one process and 0.21 s in the next, and a
   query ran 36 ms for a few seconds and 57 ms for the next few.  So the
   benchmark times a fixed kernel of its own between ops and around every
   set-up, and scales each time it reports by [reference_s] over the
   kernel's time measured next to it: the time the program would have
   taken at the reference speed.  A change to the program moves the
   scaled times as it moves the raw ones; a slow spell of the host moves
   the kernel with them.

   The kernel is round trips of 64 bytes through a pipe: system calls were
   the work whose time tracked the host's spells most closely (1.45x slower
   in a slow spell, against 1.6-1.7x for set-up and queries, 1.15x for an
   integer hash loop and 1.0x for dependent loads over 16 MB).  A few
   untimed round trips first warm the path the op before may have
   evicted.  It is none of the program's code and allocates nothing on the
   OCaml heap, so the program's GC counts do not see it. *)

(* The kernel's time at the reference speed, about its median on a 2 vCPU
   Xeon KVM guest (32-51 us). *)
let reference_s = 40e-6

let warm_trips = 8
let trips = 64

type t = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  buf : Bytes.t;
  times : float array;
  mutable count : int;
}

(* Room for [capacity] samples. *)
let create ~capacity =
  let rd, wr = Unix.pipe ~cloexec:true () in
  {
    rd;
    wr;
    buf = Bytes.make 64 'k';
    times = Array.make (max 1 capacity) 0.0;
    count = 0;
  }

let round_trips k n =
  for _ = 1 to n do
    ignore (Unix.write k.wr k.buf 0 64);
    ignore (Unix.read k.rd k.buf 0 64)
  done

(* Run the kernel once and record its time; samples past the capacity are
   timed and dropped. *)
let sample k =
  round_trips k warm_trips;
  let t0 = Trace.now () in
  round_trips k trips;
  let t = Trace.since t0 in
  if k.count < Array.length k.times then begin
    k.times.(k.count) <- t;
    k.count <- k.count + 1
  end

let samples k = Array.sub k.times 0 k.count

(* Drop the samples taken so far. *)
let reset k = k.count <- 0

(* [reference_s] over the median of [times]. *)
let factor times = reference_s /. Trace.median times

(* The factor for each of [n] ops run with a sample before every
   [every]-th op and one after the last: op [i] is scaled by the median of
   the two samples around it and the two on either side of those. *)
let op_factors k ~every ~n =
  let m = k.count in
  Array.init n (fun i ->
      let j = i / every in
      let lo = max 0 (j - 2) and hi = min (m - 1) (j + 3) in
      factor (Array.sub k.times lo (hi - lo + 1)))

(* Samples taken on either side of a set-up. *)
let around = 10

(* Run [f], timed, between [around] samples on either side; return its
   result, its raw time and the factor of those samples. *)
let time_scaled k f =
  let first = k.count in
  for _ = 1 to around do
    sample k
  done;
  let r, t = Trace.time f in
  for _ = 1 to around do
    sample k
  done;
  (r, t, factor (Array.sub k.times first (k.count - first)))
