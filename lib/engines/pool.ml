(* A persistent pool of worker domains for the morsel executor.

   [Domain.spawn] costs hundreds of microseconds (a fresh minor heap, a
   backup thread, a stop-the-world barrier on every GC while it lives) —
   paying it per query is exactly the >1-domain wall-clock regression
   BENCH_parallel exposed.  Workers here are spawned once, on first use,
   and parked on a condition variable between queries; dispatching a job is
   one lock/signal round-trip.

   The pool is deliberately simple: one job slot per worker, the caller
   always runs share 0 itself, and [parallel_run] is exclusive — a nested
   call (a worker body itself fanning out) degrades to inline sequential
   execution instead of deadlocking on parked-but-busy workers. *)

type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
  mutable domain : unit Domain.t option;
}

let max_workers = 64

(* All pool state is guarded by [pool_m] except each worker's job slot,
   which its own [m] guards. *)
let pool_m = Mutex.create ()
let workers : worker option array = Array.make max_workers None
let spawned = ref 0
let busy = Atomic.make false
let shutdown_registered = ref false

let worker_loop w () =
  Mutex.lock w.m;
  let rec loop () =
    if w.stop then ()
    else
      match w.job with
      | Some f ->
          w.job <- None;
          Mutex.unlock w.m;
          f ();
          Mutex.lock w.m;
          Condition.broadcast w.cv;
          loop ()
      | None ->
          Condition.wait w.cv w.m;
          loop ()
  in
  loop ();
  Mutex.unlock w.m

(* Stop and join all workers; the [at_exit] hook. *)
let shutdown () =
  Mutex.lock pool_m;
  let to_join = ref [] in
  for i = 0 to !spawned - 1 do
    match workers.(i) with
    | Some w ->
        Mutex.lock w.m;
        w.stop <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m;
        (match w.domain with Some d -> to_join := d :: !to_join | None -> ());
        workers.(i) <- None
    | None -> ()
  done;
  spawned := 0;
  Mutex.unlock pool_m;
  List.iter Domain.join !to_join

let ensure n =
  Mutex.lock pool_m;
  if not !shutdown_registered then begin
    shutdown_registered := true;
    at_exit shutdown
  end;
  let n = min n max_workers in
  while !spawned < n do
    let w =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        job = None;
        stop = false;
        domain = None;
      }
    in
    w.domain <- Some (Domain.spawn (worker_loop w));
    workers.(!spawned) <- Some w;
    incr spawned
  done;
  Mutex.unlock pool_m

let submit w f =
  Mutex.lock w.m;
  w.job <- Some f;
  Condition.broadcast w.cv;
  Mutex.unlock w.m

let parallel_run ~domains (f : int -> unit) =
  if domains <= 1 then f 0
  else if not (Atomic.compare_and_set busy false true) then
    (* nested fan-out: run inline rather than deadlock on parked workers *)
    for d = 0 to domains - 1 do
      f d
    done
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let helpers = min (domains - 1) max_workers in
        ensure helpers;
        let remaining = Atomic.make helpers in
        let done_m = Mutex.create () in
        let done_cv = Condition.create () in
        let first_exn = Atomic.make None in
        for d = 1 to helpers do
          let w =
            match workers.(d - 1) with Some w -> w | None -> assert false
          in
          submit w (fun () ->
              (try f d
               with e ->
                 ignore
                   (Atomic.compare_and_set first_exn None
                      (Some (e, Printexc.get_raw_backtrace ()))));
              if Atomic.fetch_and_add remaining (-1) = 1 then begin
                Mutex.lock done_m;
                Condition.broadcast done_cv;
                Mutex.unlock done_m
              end)
        done;
        (* extra shares beyond the worker cap run on the caller, then the
           caller's own share 0 *)
        for d = helpers + 1 to domains - 1 do
          f d
        done;
        (try f 0
         with e ->
           ignore
             (Atomic.compare_and_set first_exn None
                (Some (e, Printexc.get_raw_backtrace ()))));
        Mutex.lock done_m;
        while Atomic.get remaining > 0 do
          Condition.wait done_cv done_m
        done;
        Mutex.unlock done_m;
        match Atomic.get first_exn with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
