type walker = {
  touch : addr:int -> width:int -> is_write:bool -> unit;
  touch_run :
    addr:int -> width:int -> count:int -> stride:int -> is_write:bool -> unit;
  clear : unit -> unit;
}

type t = {
  params : Params.t;
  mutable tracing : bool;
  reference : walker option;
      (* a test oracle that replaces the walk below, see [create] *)
  walk : Bytes.t;
      (* the walk's whole state, laid out and owned by [memsim_walk.c]:
         geometry, tag words, LLC stamps, prefetcher streams and memos *)
  stats : Stats.t;
}

(* The walk in [memsim_walk.c].  None allocates, raises or lets the GC
   run, and each returns a value: an int, or [unit] as [Val_unit]. *)
external walk_bytes : int array -> int = "mrdb_memsim_bytes" [@@noalloc]
external walk_init : Bytes.t -> int array -> unit = "mrdb_memsim_init"
[@@noalloc]

external walk_touch :
  Bytes.t -> Stats.t -> (int[@untagged]) -> (int[@untagged]) -> bool -> unit
  = "mrdb_memsim_touch_byte" "mrdb_memsim_touch"
[@@noalloc]

external walk_touch_run :
  Bytes.t ->
  Stats.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool ->
  unit = "mrdb_memsim_touch_run_byte" "mrdb_memsim_touch_run"
[@@noalloc]

external walk_reset : Bytes.t -> unit = "mrdb_memsim_reset" [@@noalloc]

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* The geometry the walk is laid out from, after every check that keeps
   its C free of a zero divisor, a negative shift or an index out of
   range: per level (L1, L2, L3, TLB) its sets, ways, log2 block and
   latency, then the memory latency and the prefetch streams. *)
let geometry (p : Params.t) =
  let bad fmt = Printf.ksprintf invalid_arg ("Hierarchy.create: " ^^ fmt) in
  if Array.length p.levels <> 3 then
    bad "%d cache levels, not 3" (Array.length p.levels);
  if p.prefetch_streams < 1 || p.prefetch_streams > 64 then
    bad "%d prefetch streams, outside [1, 64]" p.prefetch_streams;
  let level (l : Params.level) =
    if l.assoc < 1 then bad "%s associativity %d below 1" l.name l.assoc;
    if l.block < 8 || l.block land (l.block - 1) <> 0 then
      bad "%s block %d is not a power of two of at least 8 bytes" l.name
        l.block;
    let sets = max 1 (l.capacity / (l.block * l.assoc)) in
    [ sets; l.assoc; log2 l.block; l.latency ]
  in
  Array.of_list
    (List.concat_map level
       [ p.levels.(0); p.levels.(1); p.levels.(2); p.tlb ]
    @ [ p.memory_latency; p.prefetch_streams ])

let create ?(params = Params.nehalem) ?reference () =
  let g = geometry params in
  let walk = Bytes.create (walk_bytes g) in
  walk_init walk g;
  let stats = Stats.create () in
  {
    params;
    tracing = true;
    reference = Option.map (fun make -> make params stats) reference;
    walk;
    stats;
  }

let params t = t.params

(* Direct calls into the reference walk: an indirect tail call would give
   [touch] and [touch_run] a stack frame and an entry poll, paid on the
   batched walk too. *)
let[@inline never] reference_touch r ~addr ~width ~is_write =
  r.touch ~addr ~width ~is_write

let[@inline never] reference_touch_run r ~addr ~width ~count ~stride
    ~is_write =
  r.touch_run ~addr ~width ~count ~stride ~is_write

let[@inline] touch t ~addr ~width ~is_write =
  match t.reference with
  | None -> walk_touch t.walk t.stats addr width is_write
  | Some r -> reference_touch r ~addr ~width ~is_write

let[@inline] touch_run t ~addr ~width ~count ~stride ~is_write =
  if count > 0 && width > 0 then
    match t.reference with
    | None -> walk_touch_run t.walk t.stats addr width count stride is_write
    | Some r -> reference_touch_run r ~addr ~width ~count ~stride ~is_write

let read t ~addr ~width =
  if t.tracing then touch t ~addr ~width ~is_write:false

let write t ~addr ~width =
  if t.tracing then touch t ~addr ~width ~is_write:true

let read_run t ~addr ~width ~count ~stride =
  if t.tracing then touch_run t ~addr ~width ~count ~stride ~is_write:false

let write_run t ~addr ~width ~count ~stride =
  if t.tracing then touch_run t ~addr ~width ~count ~stride ~is_write:true

let add_cpu t n = if t.tracing then t.stats.cpu_cycles <- t.stats.cpu_cycles + n

let set_enabled t b = t.tracing <- b
let enabled t = t.tracing

let without_tracing t f =
  let prev = t.tracing in
  t.tracing <- false;
  Fun.protect ~finally:(fun () -> t.tracing <- prev) f

let untraced t f = match t with Some t -> without_tracing t f | None -> f ()

let stats t = t.stats
let snapshot t = Stats.copy t.stats

let section t f =
  let before = Stats.copy t.stats in
  let v = f () in
  (v, Stats.diff t.stats before)
let reset_stats t = Stats.reset t.stats

let reset t =
  Stats.reset t.stats;
  walk_reset t.walk;
  Option.iter (fun r -> r.clear ()) t.reference
