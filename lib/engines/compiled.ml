(* Compiled query pipelines: emit a C99 translation unit per plan
   (C_emitter.emit_unit), build it with the system cc into a shared
   object, dlopen it and run the [mrdb_query] entry point directly over
   the scanned relations' partition bytes.

   Objects are cached twice: a process-local table maps source digests to
   resolved function pointers, and the object files themselves live in a
   digest-named cache directory so repeated processes skip the cc run.  In
   front of both, each catalog keeps its loaded units by plan, so a
   repeated statement neither emits nor digests its source again.
   Anything outside the compiled subset — or any emission, compile or
   load failure — falls back to the interpreted {!Jit} engine, so the
   engine is always total. *)

module Catalog = Storage.Catalog
module Relation = Storage.Relation
module Value = Storage.Value
module Physical = Relalg.Physical
module Expr = Relalg.Expr

external dlopen_stub : string -> nativeint = "mrdb_dlopen_stub"
external dlsym_stub : nativeint -> string -> nativeint = "mrdb_dlsym_stub"
external dlclose_stub : nativeint -> unit = "mrdb_dlclose_stub"

external call_query :
  nativeint -> Bytes.t array -> int array -> int array -> Bytes.t -> Bytes.t
  = "mrdb_call_query_stub"

(* ---------------- metrics ---------------- *)

let cache_hits =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_cache_hits_total"
       ~help:
         "Compiled units loaded from the on-disk object cache (at most once \
          per source digest per process)")

let cache_misses =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_cache_misses_total"
       ~help:"Compiled pipeline runs that invoked the C compiler")

let units_emitted =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_units_emitted_total"
       ~help:
         "C units emitted for compiled runs (a run served by a loaded entry \
          emits none)")

let fallbacks =
  lazy
    (Obs.Metrics.counter "mrdb_compiled_fallbacks_total"
       ~help:"Compiled-engine runs served by the interpreted fallback")

let compile_seconds =
  lazy
    (Obs.Metrics.histogram "mrdb_compiled_compile_seconds"
       ~help:"Wall time of cc invocations for compiled pipelines")

(* ---------------- compiler availability ---------------- *)

let cc_name () =
  match Sys.getenv_opt "MRDB_CC" with
  | Some c when c <> "" -> c
  | _ -> "cc"

(* One probe per process (per compiler name): does the compiler run at
   all?  [MRDB_NO_CC] is consulted on every call so tests can force the
   fallback path without restarting. *)
let probed : (string, bool) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let cc_available () =
  match Sys.getenv_opt "MRDB_NO_CC" with
  | Some ("" | "0") | None ->
      let cc = cc_name () in
      with_lock (fun () ->
          match Hashtbl.find_opt probed cc with
          | Some ok -> ok
          | None ->
              let ok =
                Sys.command
                  (Printf.sprintf "%s --version >/dev/null 2>&1"
                     (Filename.quote cc))
                = 0
              in
              Hashtbl.add probed cc ok;
              ok)
  | Some _ -> false

(* ---------------- object cache ---------------- *)

let cache_dir () =
  match Sys.getenv_opt "MRDB_COMPILE_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "mrdb-compiled"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* digest -> resolved [mrdb_query] pointer; [None] records a plan whose
   compile or load failed, so we do not retry it every run. *)
let fns : (string, nativeint option) Hashtbl.t = Hashtbl.create 16

(* ---------------- loaded units by plan ---------------- *)

(* A loaded unit and what its runs need besides the plan: each scanned
   table as its addressing assumes it, with the schema object it was
   emitted against; the result columns; and the object cache directory it
   was loaded under. *)
type entry = {
  fn : nativeint;
  tables : (C_emitter.scanned * Storage.Schema.t) array;
  out_arity : int;
  columns : string array;
  dir : string;
}

(* An entry is keyed by exactly what its C source depends on besides the
   scanned tables: the plan and the parameter type signature.  The
   estimates ([sel], [match_sel], [n_groups]) shape no code and stay out
   of the key, so a statement keeps one entry as its table grows.  Float
   constants compare by their bits, as [C_emitter] bakes them in: [=]
   would take [-0.] for [0.] and never take a nan for itself.  Plans
   outside the compiled subset (index access, DML) never get an entry. *)
let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.VFloat x, Value.VFloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let rec same_expr (a : Expr.t) (b : Expr.t) =
  match (a, b) with
  | Expr.Const x, Expr.Const y -> same_value x y
  | Expr.Col i, Expr.Col j | Expr.Param i, Expr.Param j -> i = j
  | Expr.Cmp (o, x, y), Expr.Cmp (o', x', y') ->
      o = o' && same_expr x x' && same_expr y y'
  | Expr.Arith (o, x, y), Expr.Arith (o', x', y') ->
      o = o' && same_expr x x' && same_expr y y'
  | Expr.Like (x, y), Expr.Like (x', y') -> same_expr x x' && same_expr y y'
  | Expr.And xs, Expr.And ys | Expr.Or xs, Expr.Or ys ->
      List.equal same_expr xs ys
  | Expr.Not x, Expr.Not y | Expr.IsNull x, Expr.IsNull y -> same_expr x y
  | _ -> false

let same_named (e, n) (e', n') = String.equal n n' && same_expr e e'

let same_agg (a : Relalg.Aggregate.t) (b : Relalg.Aggregate.t) =
  a.func = b.func
  && String.equal a.name b.name
  && Option.equal same_expr a.expr b.expr

let rec same_plan (a : Physical.t) (b : Physical.t) =
  match (a, b) with
  | ( Physical.Scan { table; access = Physical.Full_scan; post; _ },
      Physical.Scan
        { table = table'; access = Physical.Full_scan; post = post'; _ } ) ->
      String.equal table table' && Option.equal same_expr post post'
  | ( Physical.Select { child; pred; _ },
      Physical.Select { child = child'; pred = pred'; _ } ) ->
      same_expr pred pred' && same_plan child child'
  | ( Physical.Project { child; exprs },
      Physical.Project { child = child'; exprs = exprs' } ) ->
      List.equal same_named exprs exprs' && same_plan child child'
  | ( Physical.Hash_join { build; probe; build_keys; probe_keys; _ },
      Physical.Hash_join
        {
          build = build';
          probe = probe';
          build_keys = build_keys';
          probe_keys = probe_keys';
          _;
        } ) ->
      build_keys = build_keys' && probe_keys = probe_keys'
      && same_plan build build' && same_plan probe probe'
  | ( Physical.Group_by { child; keys; aggs; _ },
      Physical.Group_by { child = child'; keys = keys'; aggs = aggs'; _ } ) ->
      List.equal same_named keys keys'
      && List.equal same_agg aggs aggs'
      && same_plan child child'
  | ( Physical.Sort { child; keys },
      Physical.Sort { child = child'; keys = keys' } ) ->
      keys = keys' && same_plan child child'
  | Physical.Limit { child; n }, Physical.Limit { child = child'; n = n' } ->
      n = n' && same_plan child child'
  | _ -> false

(* Agrees with [same_plan]: no estimates, and [Hashtbl.hash] maps [-0.]
   and [0.], and all nans, to one hash each. *)
let rec plan_hash (p : Physical.t) =
  match p with
  | Physical.Scan { table; post; _ } -> Hashtbl.hash (table, post)
  | Physical.Select { child; pred; _ } -> Hashtbl.hash (plan_hash child, pred)
  | Physical.Project { child; exprs } -> Hashtbl.hash (plan_hash child, exprs)
  | Physical.Hash_join { build; probe; build_keys; _ } ->
      Hashtbl.hash (plan_hash build, plan_hash probe, build_keys)
  | Physical.Group_by { child; keys; aggs; _ } ->
      Hashtbl.hash (plan_hash child, keys, aggs)
  | Physical.Sort { child; keys } -> Hashtbl.hash (plan_hash child, keys)
  | Physical.Limit { child; n } -> Hashtbl.hash (plan_hash child, n)
  | Physical.Insert { table; _ } | Physical.Update { table; _ } ->
      Hashtbl.hash table

module Units = Hashtbl.Make (struct
  type t = Physical.t * string (* plan, parameter type signature *)

  let equal (p, s) (p', s') = String.equal s s' && same_plan p p'
  let hash (p, s) = Hashtbl.hash (plan_hash p, s)
end)

let type_signature params =
  String.init (Array.length params) (fun i ->
      match (params.(i) : Value.t) with
      | Value.Null -> 'n'
      | Value.VInt _ -> 'i'
      | Value.VFloat _ -> 'f'
      | Value.VBool _ -> 'b'
      | Value.VDate _ -> 'd'
      | Value.VStr _ -> 's')

(* The entries of each catalog the engine has run on, newest first.  They
   sit in an ephemeron keyed by the catalog, so they die with it; the
   weak pointer beside it lets [add_entry] drop the emptied slots.  Both
   are read and written under [lock]. *)
type slot = {
  owner : Catalog.t Weak.t;
  units : (Catalog.t, entry Units.t) Ephemeron.K1.t;
}

let slots : slot list ref = ref []

let rec units_of cat = function
  | [] -> None
  | s :: rest -> (
      match Ephemeron.K1.query s.units cat with
      | Some _ as u -> u
      | None -> units_of cat rest)

let find_entry cat key =
  match units_of cat !slots with
  | Some units -> Units.find_opt units key
  | None -> None

let add_entry cat key e =
  let units =
    match units_of cat !slots with
    | Some units -> units
    | None ->
        let units = Units.create 8 and owner = Weak.create 1 in
        Weak.set owner 0 (Some cat);
        slots :=
          { owner; units = Ephemeron.K1.make cat units }
          :: List.filter (fun s -> Weak.check s.owner 0) !slots;
        units
  in
  Units.replace units key e

(* The relations [e] runs on in [cat], if each scanned table is still
   the schema object, layout, partition widths and plain encoding the
   unit was emitted for. *)
let relations cat e =
  let rels =
    Array.map
      (fun ((t : C_emitter.scanned), _) -> Catalog.find cat t.name)
      e.tables
  in
  if
    Array.for_all2
      (fun rel (t, schema) ->
        Relation.schema rel == schema
        && Relation.encodings rel = []
        && C_emitter.scanned_of t.C_emitter.name rel = t)
      rels e.tables
  then Some rels
  else None

let reset_cache () =
  with_lock (fun () ->
      (* handles stay open; objects are process-lifetime *)
      Hashtbl.reset fns;
      Hashtbl.reset probed;
      slots := [])

let compile_object ~cc ~src_path ~obj_path =
  let tmp = Printf.sprintf "%s.%d.tmp" obj_path (Unix.getpid ()) in
  let cmd =
    Printf.sprintf
      "%s -O2 -Werror=implicit-function-declaration -fPIC -shared -o %s %s \
       >/dev/null 2>&1"
      (Filename.quote cc) (Filename.quote tmp) (Filename.quote src_path)
  in
  let t0 = Unix.gettimeofday () in
  let rc = Sys.command cmd in
  Obs.Metrics.observe (Lazy.force compile_seconds) (Unix.gettimeofday () -. t0);
  if rc = 0 then begin
    Sys.rename tmp obj_path;
    true
  end
  else begin
    (try Sys.remove tmp with Sys_error _ -> ());
    false
  end

let write_source path source =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  output_string oc source;
  close_out oc;
  Sys.rename tmp path

(* Resolve the entry point for [source], compiling at most once per
   digest per process.  Returns [None] when the compile/load failed
   (recorded, so the cost is paid once).  Callers check {!cc_available}
   first. *)
let lookup_fn ~dir source =
  let digest = Digest.to_hex (Digest.string source) in
  with_lock (fun () ->
      match Hashtbl.find_opt fns digest with
      | Some fn -> fn
      | None ->
          let fn =
            try
              ensure_dir dir;
              let obj = Filename.concat dir (digest ^ ".so") in
              let ok =
                if Sys.file_exists obj then begin
                  Obs.Metrics.incr (Lazy.force cache_hits);
                  true
                end
                else begin
                  Obs.Metrics.incr (Lazy.force cache_misses);
                  let src = Filename.concat dir (digest ^ ".c") in
                  write_source src source;
                  compile_object ~cc:(cc_name ()) ~src_path:src
                    ~obj_path:obj
                end
              in
              if not ok then None
              else
                let h = dlopen_stub obj in
                if h = 0n then None
                else
                  let fn = dlsym_stub h "mrdb_query" in
                  if fn = 0n then begin
                    dlclose_stub h;
                    None
                  end
                  else Some fn
            with Sys_error _ | Unix.Unix_error _ -> None
          in
          Hashtbl.add fns digest fn;
          fn)

(* ---------------- execution ---------------- *)

let decode_rows out ~out_arity =
  let rows = ref [] and pos = ref 8 in
  for _ = 1 to Int64.to_int (Bytes.get_int64_le out 0) do
    let row = Array.make out_arity Value.Null in
    for i = 0 to out_arity - 1 do
      let p = !pos in
      match Bytes.get out p with
      | '\000' -> pos := p + 1
      | '\005' ->
          let len = Int32.to_int (Bytes.get_int32_le out (p + 1)) in
          row.(i) <- Value.VStr (Bytes.sub_string out (p + 5) len);
          pos := p + 5 + len
      | tag ->
          let bits = Bytes.get_int64_le out (p + 1) in
          row.(i) <-
            (match tag with
            | '\001' -> Value.VInt (Int64.to_int bits)
            | '\002' -> Value.VFloat (Int64.float_of_bits bits)
            | '\003' -> Value.VBool (bits <> 0L)
            | '\004' -> Value.VDate (Int64.to_int bits)
            | _ -> invalid_arg "Compiled: bad tag in result buffer");
          pos := p + 9
    done;
    rows := row :: !rows
  done;
  List.rev !rows

exception Fallback_needed

(* Run a loaded unit over the current state of its scanned tables.  The
   unit's addressing is baked in, so every scanned table must still be
   what it was emitted for ({!relations}); otherwise the run falls back. *)
let execute_fn e cat ~params =
  let rels =
    match relations cat e with Some rels -> rels | None -> raise Fallback_needed
  in
  let per_part f =
    Array.concat
      (Array.to_list
         (Array.map
            (fun rel -> Array.init (Relation.n_parts rel) (f rel))
            rels))
  in
  let parts =
    per_part (fun rel p ->
        Storage.Buffer.unsafe_bytes (Relation.part_buffer rel p))
  in
  let offs = per_part Relation.part_row_offset in
  let nrows = Array.map Relation.nrows rels in
  let out = call_query e.fn parts offs nrows params in
  if Bytes.length out < 8 then raise Fallback_needed;
  { Runtime.columns = e.columns; rows = decode_rows out ~out_arity:e.out_arity }

let fallback cat plan ~params () =
  Obs.Metrics.incr (Lazy.force fallbacks);
  Jit.run cat plan ~params

(* The plan's loaded unit, or why it must run on Jit.  A loaded entry that
   still fits the catalog serves the run as it is; otherwise the unit is
   emitted again, so a repartitioned table gets a unit for its new layout
   and the fallback keeps its reason.  [MRDB_NO_CC] and
   [MRDB_COMPILE_CACHE] are read on every run. *)
let compile cat plan ~params =
  let key = (plan, type_signature params) and dir = cache_dir () in
  let cc = cc_available () in
  let cached = if cc then with_lock (fun () -> find_entry cat key) else None in
  match cached with
  | Some e when String.equal e.dir dir && Option.is_some (relations cat e) ->
      Ok e
  | _ -> (
      match C_emitter.emit_unit cat plan ~params with
      | Error reason -> Error reason
      | Ok info -> (
          Obs.Metrics.incr (Lazy.force units_emitted);
          if not cc then Error "no C compiler"
          else
            match lookup_fn ~dir info.C_emitter.source with
            | None -> Error "compile or load failed"
            | Some fn ->
                let e =
                  {
                    fn;
                    tables =
                      Array.map
                        (fun (t : C_emitter.scanned) ->
                          (t, Relation.schema (Catalog.find cat t.name)))
                        info.C_emitter.tables;
                    out_arity = info.C_emitter.out_arity;
                    columns =
                      Array.map
                        (fun (a : Storage.Schema.attr) -> a.Storage.Schema.name)
                        (Physical.schema cat plan);
                    dir;
                  }
                in
                with_lock (fun () -> add_entry cat key e);
                Ok e))

(* Compile once, step many times: the returned thunk re-reads the scanned
   relations' row windows on every call, so it serves as a {!Parallel}
   preparer — morsel reslicing moves [row_base]/[nrows] between calls.
   The [#compile] phase of a profile is labelled with the verdict. *)
let prepare cat plan ~params =
  let path = Prof.child Prof.root 0 in
  let compiled =
    Prof.phase_at path "#compile" (fun () -> compile cat plan ~params)
  in
  Obs.Profile.annotate
    ~id:(Obs.Span.phase_id path "#compile")
    (match compiled with
    | Ok _ -> "native"
    | Error reason -> "jit fallback: " ^ reason);
  match compiled with
  | Error _ -> fun () -> fallback cat plan ~params ()
  | Ok e ->
      let param_bytes = C_emitter.param_bytes params in
      fun () ->
        Prof.op_id path ~label:"compiled pipeline" (fun () ->
            try execute_fn e cat ~params:param_bytes
            with Fallback_needed -> fallback cat plan ~params ())

let run cat plan ~params = prepare cat plan ~params ()
