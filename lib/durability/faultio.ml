(* Fault-injectable storage for the durability subsystem.

   All WAL and snapshot I/O goes through an [env]: a small set of named byte
   stores backed either by real files (the CLI) or by in-memory buffers (the
   recovery test harness).  Writes are buffered per sink; only [flush] makes
   bytes durable.  A fault plan can simulate a process crash at any
   write/flush/rename boundary — each such boundary is one numbered *crash
   point* — optionally letting a prefix of the un-flushed bytes survive (a
   torn write / partial flush).  Everything is deterministic: the same plan
   over the same workload crashes at the same byte.

   Crash points carry *names* as well as positions: each boundary is the
   k-th occurrence of a stable name like "flush:wal" or "txn.pre_commit".
   Positional [Crash_at] indices shift whenever a new boundary is inserted
   upstream of them; [At_point] pins (name, occurrence) instead, so pinned
   recovery seeds and corpus cases keep replaying the same boundary when
   the commit path grows new points. *)

exception Crash of string
(** The simulated process death.  Whoever drives the workload catches it,
    drops all live state and runs recovery against the env's durable
    contents. *)

type plan =
  | Reliable  (** no faults *)
  | Crash_at of { point : int; torn : float }
      (** die at the [point]-th crash point (1-based); [torn] is the
          fraction of the un-flushed tail that becomes durable anyway
          (0.0 = all buffered bytes lost, 1.0 = the op fully hit the medium
          before the crash). *)
  | At_point of { name : string; nth : int; torn : float }
      (** die at the [nth]-th occurrence (1-based) of the named crash
          point.  Stable under insertion of differently-named points. *)
  | Seeded of { seed : int; mean_period : int }
      (** crash at a pseudo-random boundary roughly every [mean_period]
          crash points, with a pseudo-random torn fraction — deterministic
          for a fixed seed. *)

type store = { mutable data : Bytes.t; mutable len : int }

type backend =
  | Mem of (string, store) Hashtbl.t
  | Dir of (string -> string)

(* The occurrences passed of one named crash point.  A sink looks up the
   counters of its writes and flushes when it opens, so passing a point
   costs no lookup by name. *)
type counter = { point : string; mutable passed : int }

type t = {
  backend : backend;
  mutable plan : plan;
  mutable ops : int;
  counts : (string, counter) Hashtbl.t;  (* per point name *)
  mutable rng : int64;
}

let memory ?(plan = Reliable) () =
  { backend = Mem (Hashtbl.create 4); plan; ops = 0;
    counts = Hashtbl.create 8; rng = 0L }

let files ?(plan = Reliable) ~path () =
  { backend = Dir path; plan; ops = 0; counts = Hashtbl.create 8; rng = 0L }

let in_dir ?plan dir =
  files ?plan ~path:(fun name -> Filename.concat dir name) ()

let set_plan t plan =
  t.plan <- plan;
  t.rng <- (match plan with Seeded { seed; _ } -> Int64.of_int seed | _ -> 0L)

let points t = t.ops

let counter t name =
  match Hashtbl.find t.counts name with
  | c -> c
  | exception Not_found ->
      let c = { point = name; passed = 0 } in
      Hashtbl.replace t.counts name c;
      c

let named_points t =
  Hashtbl.fold
    (fun name c acc -> if c.passed > 0 then (name, c.passed) :: acc else acc)
    t.counts []
  |> List.sort compare

(* Counters are zeroed, not dropped: open sinks hold theirs. *)
let reset_points t =
  t.ops <- 0;
  Hashtbl.iter (fun _ c -> c.passed <- 0) t.counts

(* ------------------------------------------------------------------ *)
(* Durable stores                                                     *)
(* ------------------------------------------------------------------ *)

let mem_store tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
      let s = { data = Bytes.create 256; len = 0 } in
      Hashtbl.replace tbl name s;
      s

let mem_append s chunk pos n =
  if s.len + n > Bytes.length s.data then begin
    let bigger = Bytes.create (max (s.len + n) (2 * Bytes.length s.data)) in
    Bytes.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  Bytes.blit chunk pos s.data s.len n;
  s.len <- s.len + n

(* The file backend's failures (a missing directory, an unwritable file)
   are user errors: [Io_error] with the system's message. *)
let on_disk f =
  try f () with
  | Sys_error msg -> raise (Mrdb_util.Errors.Io_error msg)
  | Unix.Unix_error (e, _, arg) ->
      raise
        (Mrdb_util.Errors.Io_error
           (Printf.sprintf "%s: %s" arg (Unix.error_message e)))

let durable_append t name chunk pos n =
  if n > 0 then
    match t.backend with
    | Mem tbl -> mem_append (mem_store tbl name) chunk pos n
    | Dir path ->
        on_disk (fun () ->
            let oc =
              open_out_gen
                [ Open_append; Open_creat; Open_binary ]
                0o644 (path name)
            in
            output_substring oc (Bytes.unsafe_to_string chunk) pos n;
            close_out oc)

let durable_truncate t name =
  match t.backend with
  | Mem tbl -> (mem_store tbl name).len <- 0
  | Dir path ->
      on_disk (fun () ->
          close_out
            (open_out_gen [ Open_trunc; Open_creat; Open_binary ] 0o644
               (path name)))

let durable_rename t ~src ~dst =
  match t.backend with
  | Mem tbl ->
      (match Hashtbl.find_opt tbl src with
      | Some s ->
          Hashtbl.replace tbl dst s;
          Hashtbl.remove tbl src
      | None -> ())
  | Dir path ->
      on_disk (fun () ->
          if Sys.file_exists (path src) then Sys.rename (path src) (path dst))

let read_all t name =
  match t.backend with
  | Mem tbl -> (
      match Hashtbl.find_opt tbl name with
      | Some s -> Some (Bytes.sub s.data 0 s.len)
      | None -> None)
  | Dir path ->
      let file = path name in
      if Sys.file_exists file then
        on_disk (fun () ->
            let ic = open_in_bin file in
            let n = in_channel_length ic in
            let b = Bytes.create n in
            really_input ic b 0 n;
            close_in ic;
            Some b)
      else None

let durable_size t name =
  match t.backend with
  | Mem tbl -> (
      match Hashtbl.find_opt tbl name with Some s -> s.len | None -> 0)
  | Dir path -> (
      try (Unix.stat (path name)).Unix.st_size with Unix.Unix_error _ -> 0)

(* Read-side faults: bit rot (a test helper) and a lost tail, which tests
   model and recovery cuts away with [truncate_store]. *)

let corrupt_byte t name off =
  match t.backend with
  | Mem tbl ->
      let s = mem_store tbl name in
      if off < s.len then
        Bytes.set s.data off
          (Char.chr (Char.code (Bytes.get s.data off) lxor 0xFF))
  | Dir path -> (
      match read_all t name with
      | Some b when off < Bytes.length b ->
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
          on_disk (fun () ->
              let oc =
                open_out_gen [ Open_trunc; Open_binary ] 0o644 (path name)
              in
              output_bytes oc b;
              close_out oc)
      | _ -> ())

let truncate_store t name len =
  match t.backend with
  | Mem tbl ->
      let s = mem_store tbl name in
      s.len <- min s.len (max 0 len)
  | Dir path ->
      let size = durable_size t name in
      if size > 0 then
        on_disk (fun () -> Unix.truncate (path name) (min size (max 0 len)))

(* ------------------------------------------------------------------ *)
(* Crash points                                                       *)
(* ------------------------------------------------------------------ *)

let splitmix st =
  let z = Int64.add !st 0x9E3779B97F4A7C15L in
  st := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Advance the crash-point counters for one op at point [c]; returns
   [Some torn] if the plan says the process dies here. *)
let crash_here t c =
  t.ops <- t.ops + 1;
  c.passed <- c.passed + 1;
  match t.plan with
  | Reliable -> None
  | Crash_at { point; torn } -> if t.ops = point then Some torn else None
  | At_point { name; nth; torn } ->
      if c.passed = nth && String.equal name c.point then Some torn else None
  | Seeded { mean_period; _ } ->
      let st = ref t.rng in
      let draw = splitmix st in
      let hit = Int64.rem (Int64.logand draw Int64.max_int)
                  (Int64.of_int (max 1 mean_period)) = 0L in
      let torn =
        float_of_int
          (Int64.to_int (Int64.rem (Int64.logand (splitmix st) Int64.max_int) 3L))
        /. 2.0
      in
      t.rng <- !st;
      if hit then Some torn else None

let torn_bytes torn len =
  let k = int_of_float ((torn *. float_of_int len) +. 0.5) in
  min len (max 0 k)

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

(* Un-flushed bytes live in [pending.(0 .. plen-1)].  The crash-point
   counters of a sink's writes and flushes are looked up once, at open. *)
type sink = {
  env : t;
  name : string;
  write_point : counter;
  flush_point : counter;
  mutable pending : Bytes.t;
  mutable plen : int;
  mutable dead : bool;
}

let sink t name =
  {
    env = t;
    name;
    write_point = counter t ("write:" ^ name);
    flush_point = counter t ("flush:" ^ name);
    pending = Bytes.create 256;
    plen = 0;
    dead = false;
  }

let create ?pending t name =
  (match crash_here t (counter t ("create:" ^ name)) with
  | Some torn when torn < 1.0 -> raise (Crash "before truncate")
  | Some _ ->
      durable_truncate t name;
      raise (Crash "after truncate")
  | None -> durable_truncate t name);
  let s = sink t name in
  Option.iter (fun b -> s.pending <- b) pending;
  s

let append t name = sink t name

let check_alive s what =
  if s.dead then invalid_arg (Printf.sprintf "Faultio.%s: sink crashed" what)

(* The process dies mid-[what]: a [torn] fraction of the pending bytes
   reaches the medium anyway. *)
let die s torn what =
  s.dead <- true;
  durable_append s.env s.name s.pending 0 (torn_bytes torn s.plen);
  raise (Crash (Printf.sprintf "during %s of %s" what s.name))

let write_sub s b ~pos ~len =
  check_alive s "write";
  (* bytes already at their place in the pending buffer are not copied *)
  if not (b == s.pending && pos = s.plen) then begin
    if s.plen + len > Bytes.length s.pending then begin
      let bigger =
        Bytes.create (max (s.plen + len) (2 * Bytes.length s.pending))
      in
      Bytes.blit s.pending 0 bigger 0 s.plen;
      s.pending <- bigger
    end;
    Bytes.blit b pos s.pending s.plen len
  end;
  s.plen <- s.plen + len;
  match crash_here s.env s.write_point with
  | Some torn -> die s torn "write"
  | None -> ()

let write s chunk =
  write_sub s (Bytes.unsafe_of_string chunk) ~pos:0 ~len:(String.length chunk)

let flush s =
  check_alive s "flush";
  match crash_here s.env s.flush_point with
  | Some torn -> die s torn "flush"
  | None ->
      (match s.env.backend with
      | Mem tbl when (mem_store tbl s.name).len = 0 ->
          (* an empty in-memory store takes the pending bytes over whole —
             a snapshot reaches its store without another copy *)
          Hashtbl.replace tbl s.name { data = s.pending; len = s.plen };
          s.pending <- Bytes.create 256
      | _ -> durable_append s.env s.name s.pending 0 s.plen);
      s.plen <- 0

let close s =
  if not s.dead then begin
    if s.plen > 0 then flush s;
    s.dead <- true
  end

let rename t ~src ~dst =
  match crash_here t (counter t ("rename:" ^ dst)) with
  | Some torn when torn < 1.0 -> raise (Crash "before rename")
  | Some _ ->
      durable_rename t ~src ~dst;
      raise (Crash "after rename")
  | None -> durable_rename t ~src ~dst

(* An explicit logical crash point with no bytes of its own — the commit
   path inserts these at boundaries worth pinning (pre/post commit frame).
   The torn fraction is irrelevant: nothing is buffered here. *)
let point t name =
  match crash_here t (counter t name) with
  | Some _ -> raise (Crash ("at point " ^ name))
  | None -> ()
